#include "cores/avr/programs.hpp"

#include "util/assert.hpp"

namespace ripple::cores::avr {

std::string_view fib_source() {
  return R"(
; fib: 16-bit iterative Fibonacci, repeated forever.
; r16:r17 = a, r18:r19 = b, r20:r21 = tmp, r22 = loop counter
start:
    ldi r16, 0          ; a = 0
    ldi r17, 0
    ldi r18, 1          ; b = 1
    ldi r19, 0
    ldi r22, 20         ; iterations
loop:
    mov r20, r16        ; tmp = a
    mov r21, r17
    add r20, r18        ; tmp += b
    adc r21, r19
    mov r16, r18        ; a = b
    mov r17, r19
    mov r18, r20        ; b = tmp
    mov r19, r21
    dec r22
    brne loop
    out 0x00, r16       ; emit fib(20) & 0xff
    out 0x01, r17       ; emit fib(20) >> 8
    rjmp start
)";
}

std::string_view conv_source() {
  return R"(
; conv: y[n] = sum_k x[n+k] * h[k]  for n = 0..4, k = 0..3
; x[8] and h[4] live in data memory; products are 8-bit (wraparound),
; multiplication is a software shift-add loop (the core has no multiplier).
.equ XBASE, 0x10
.equ HBASE, 0x30
.equ YBASE, 0x40
start:
    ; x[i] = 3 + 7*i
    ldi r26, XBASE
    ldi r16, 3
    ldi r17, 8
fillx:
    st X, r16
    subi r16, -7        ; r16 += 7
    inc r26
    dec r17
    brne fillx
    ; h = {1, 2, 3, 1}
    ldi r26, HBASE
    ldi r16, 1
    st X, r16
    inc r26
    ldi r16, 2
    st X, r16
    inc r26
    ldi r16, 3
    st X, r16
    inc r26
    ldi r16, 1
    st X, r16
    ; outer loop over n (r20)
    ldi r20, 0
convn:
    ldi r24, 0          ; acc
    ldi r21, 0          ; k
convk:
    mov r26, r20        ; load x[n+k]
    add r26, r21
    subi r26, -XBASE
    ld r18, X
    mov r26, r21        ; load h[k]
    subi r26, -HBASE
    ld r19, X
    ldi r25, 0          ; 8x8 shift-add multiply: r25 = r18 * r19 (mod 256)
    ldi r22, 8
mul1:
    lsr r19
    brcc mul2
    add r25, r18
mul2:
    lsl r18
    dec r22
    brne mul1
    add r24, r25        ; acc += product
    inc r21
    cpi r21, 4
    brne convk
    mov r26, r20        ; y[n] = acc
    subi r26, -YBASE
    st X, r24
    out 0x02, r24
    inc r20
    cpi r20, 5
    brne convn
    rjmp start
)";
}

std::string_view sort_source() {
  return R"(
; sort: bubble sort over the full 256-byte data memory, repeated forever.
; Filled descending (x[i] = 255 - i), sorted ascending, ~650k cycles/round.
start:
    ldi r26, 0          ; x[i] = 255 - i for all 256 bytes
    ldi r16, 255
    ldi r17, 0          ; counts 256 iterations (wraps)
fill:
    st X, r16
    dec r16
    inc r26
    dec r17
    brne fill
    ldi r20, 255        ; bubble passes
pass:
    ldi r26, 0
    ldi r21, 255        ; comparisons per pass
inner:
    ld r18, X           ; a = x[i]
    inc r26
    ld r19, X           ; b = x[i+1]
    cp r19, r18         ; carry set iff b < a
    brcc noswap
    st X, r18           ; swap: x[i+1] = a
    dec r26
    st X, r19           ; x[i] = b
    inc r26
noswap:
    dec r21
    brne inner
    dec r20
    brne pass
    ldi r26, 0          ; emit the sorted extremes
    ld r16, X
    out 0x00, r16
    ldi r26, 255
    ld r16, X
    out 0x01, r16
    rjmp start
)";
}

std::string_view crc_source() {
  return R"(
; crc: CRC-32 (poly 0xEDB88320, LSB-first) over the byte stream 0,1,...,255,
; repeated forever; emits the final CRC on ports 0..3 each block.
; crc = r16 (LSB) .. r19 (MSB); poly bytes held in r20..r23.
start:
    ldi r20, 0x20
    ldi r21, 0x83
    ldi r22, 0xB8
    ldi r23, 0xED
    ldi r16, 0xFF       ; crc = 0xFFFFFFFF
    ldi r17, 0xFF
    ldi r18, 0xFF
    ldi r19, 0xFF
    ldi r24, 0          ; message byte counter
byteloop:
    eor r16, r24        ; crc ^= byte
    ldi r25, 8
bitloop:
    lsr r19             ; crc >>= 1 (carry = old bit 0)
    ror r18
    ror r17
    ror r16
    brcc nopoly
    eor r16, r20        ; crc ^= 0xEDB88320
    eor r17, r21
    eor r18, r22
    eor r19, r23
nopoly:
    dec r25
    brne bitloop
    inc r24
    brne byteloop       ; 256 message bytes per block
    com r16             ; final inversion: crc = ~crc
    com r17
    com r18
    com r19
    out 0x00, r16
    out 0x01, r17
    out 0x02, r18
    out 0x03, r19
    rjmp start
)";
}

std::string_view irq_source() {
  return R"(
; irq: timer-driven event counter. The core subset has no interrupt
; hardware, so the timer interrupt is emulated by a polled countdown: the
; main loop mixes a working register; every 181 iterations the "ISR" fires,
; bumps the tick counter and reports it.
start:
    ldi r16, 1          ; work accumulator
    ldi r17, 0
    ldi r24, 0          ; tick counter
    ldi r20, 181        ; timer reload
main:
    add r16, r17        ; work = mix(work)
    mov r18, r16
    lsl r18
    eor r17, r18
    inc r16
    dec r20
    brne main
isr:                    ; the "timer interrupt"
    inc r24
    out 0x00, r24       ; tick count
    out 0x01, r16       ; sampled work state
    ldi r20, 181
    rjmp main
)";
}

Program fib_program() { return assemble(fib_source()); }
Program conv_program() { return assemble(conv_source()); }

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
  RIPPLE_CHECK(false, "unknown AVR workload '", std::string(name), "'");
  return {};
}

Program workload_program(std::string_view name) {
  return assemble(workload_source(name));
}

} // namespace ripple::cores::avr
