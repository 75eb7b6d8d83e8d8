#include "cores/msp430/programs.hpp"

#include "util/assert.hpp"

namespace ripple::cores::msp430 {

std::string_view fib_source() {
  return R"(
; fib: 16-bit iterative Fibonacci, repeated forever.
; r4 = a, r5 = b, r6 = tmp, r7 = loop counter
.equ OUT0, 0xff00
start:
    mov #0, r4
    mov #1, r5
    mov #20, r7
loop:
    mov r4, r6          ; tmp = a
    add r5, r6          ; tmp += b
    mov r5, r4          ; a = b
    mov r6, r5          ; b = tmp
    sub #1, r7
    jne loop
    mov r4, &OUT0       ; emit fib(20)
    jmp start
)";
}

std::string_view conv_source() {
  return R"(
; conv: y[n] = sum_k x[n+k] * h[k]  for n = 0..4, k = 0..3 (16-bit values)
; x[8] at XB, h[4] at HB, y[5] at YB; software shift-add multiply.
.equ XB,   0x200
.equ HB,   0x220
.equ YB,   0x240
.equ OUT2, 0xff04
start:
    ; x[i] = 3 + 7*i
    mov #XB, r4
    mov #3, r5
    mov #8, r6
fillx:
    mov r5, 0(r4)
    add #7, r5
    add #2, r4
    sub #1, r6
    jne fillx
    ; h = {1, 2, 3, 1}
    mov #HB, r4
    mov #1, 0(r4)
    mov #2, 2(r4)
    mov #3, 4(r4)
    mov #1, 6(r4)
    ; outer loop over n (r7)
    mov #0, r7
convn:
    mov #0, r8          ; acc
    mov #0, r9          ; k
convk:
    mov r7, r10         ; x[n+k]
    add r9, r10
    add r10, r10        ; byte offset
    add #XB, r10
    mov @r10, r11
    mov r9, r10         ; h[k]
    add r10, r10
    add #HB, r10
    mov @r10, r12
    mov #0, r13         ; r13 = r11 * r12 (shift-add; r12 > 0 and small)
mul1:
    bit #1, r12
    jeq mul2
    add r11, r13
mul2:
    add r11, r11
    rra r12
    jne mul1
    add r13, r8         ; acc += product
    add #1, r9
    cmp #4, r9
    jne convk
    mov r7, r10         ; y[n] = acc
    add r10, r10
    add #YB, r10
    mov r8, 0(r10)
    mov r8, &OUT2       ; emit y[n]
    add #1, r7
    cmp #5, r7
    jne convn
    jmp start
)";
}

std::string_view sort_source() {
  return R"(
; sort: bubble sort over a 128-word array, repeated forever.
; Filled descending (x[i] = 128 - i), sorted ascending, ~150k cycles/round.
.equ XB,   0x200
.equ OUT0, 0xff00
.equ OUT2, 0xff04
start:
    mov #XB, r4         ; x[i] = 128 - i
    mov #128, r5
    mov #128, r6
fill:
    mov r5, 0(r4)
    sub #1, r5
    add #2, r4
    sub #1, r6
    jne fill
    mov #127, r6        ; bubble passes
pass:
    mov #XB, r4
    mov #127, r7        ; comparisons per pass
inner:
    mov @r4, r8         ; a = x[i]
    mov 2(r4), r9       ; b = x[i+1]
    cmp r8, r9          ; carry set iff b >= a (unsigned)
    jhs noswap
    mov r9, 0(r4)       ; swap
    mov r8, 2(r4)
noswap:
    add #2, r4
    sub #1, r7
    jne inner
    sub #1, r6
    jne pass
    mov #XB, r4         ; emit the sorted extremes
    mov @r4, &OUT0
    mov 254(r4), &OUT2
    jmp start
)";
}

std::string_view crc_source() {
  return R"(
; crc: CRC-32 (poly 0xEDB88320, LSB-first) over the byte stream 0,1,...,255,
; repeated forever; emits the final CRC low/high words each block.
; crc = r5:r4 (r4 = low word). Logic ops set C = !Z on this core, so
; `bit #0, r3` clears carry ahead of the 32-bit rrc shift.
.equ OUT0, 0xff00
.equ OUT2, 0xff04
start:
    mov #0xffff, r4     ; crc = 0xFFFFFFFF
    mov #0xffff, r5
    mov #0, r8          ; message byte counter
byteloop:
    mov r8, r9
    and #0xff, r9
    xor r9, r4          ; crc ^= byte
    mov #8, r10
bitloop:
    bit #0, r3          ; clear carry (0 & anything -> Z=1 -> C=0)
    rrc r5              ; crc >>= 1 (carry = old bit 0)
    rrc r4
    jnc nopoly
    xor #0x8320, r4     ; crc ^= 0xEDB88320
    xor #0xEDB8, r5
nopoly:
    sub #1, r10
    jne bitloop
    add #1, r8
    cmp #256, r8
    jne byteloop        ; 256 message bytes per block
    xor #0xffff, r4     ; final inversion: crc = ~crc
    xor #0xffff, r5
    mov r4, &OUT0
    mov r5, &OUT2
    jmp start
)";
}

std::string_view irq_source() {
  return R"(
; irq: timer-driven event counter. The core subset has no interrupt
; hardware, so the timer interrupt is emulated by a polled countdown: the
; main loop mixes a working register; every 181 iterations the "ISR" fires,
; bumps the tick counter and reports it.
.equ OUT0, 0xff00
.equ OUT2, 0xff04
start:
    mov #1, r4          ; work accumulator
    mov #0, r7          ; tick counter
    mov #181, r6        ; timer reload
main:
    add r4, r4          ; work = mix(work)
    xor r6, r4
    add #1, r4
    sub #1, r6
    jne main
isr:                    ; the "timer interrupt"
    add #1, r7
    mov r7, &OUT0       ; tick count
    mov r4, &OUT2       ; sampled work state
    mov #181, r6
    jmp main
)";
}

Image fib_image() { return assemble(fib_source()); }
Image conv_image() { return assemble(conv_source()); }

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"fib", "conv", "sort",
                                                      "crc", "irq"};
  return names;
}

std::string_view workload_source(std::string_view name) {
  if (name == "fib") return fib_source();
  if (name == "conv") return conv_source();
  if (name == "sort") return sort_source();
  if (name == "crc") return crc_source();
  if (name == "irq") return irq_source();
  RIPPLE_CHECK(false, "unknown MSP430 workload '", std::string(name), "'");
  return {};
}

Image workload_image(std::string_view name) {
  return assemble(workload_source(name));
}

} // namespace ripple::cores::msp430
