// Evaluation workloads for the AVR core. The paper's two short kernels
// (iterative Fibonacci, 1-D convolution) are joined by three long-running
// workloads for million-cycle streaming traces (bubble sort over the whole
// data memory, a CRC-32 loop, and a timer-driven event counter). All loop
// forever so a trace of any length exercises them continuously, and all
// report results through the OUT port so fault-injection campaigns have an
// architectural observable.
#pragma once

#include <string_view>
#include <vector>

#include "cores/avr/assembler.hpp"

namespace ripple::cores::avr {

/// 16-bit Fibonacci in registers; emits fib(20) on ports 0/1 each round.
[[nodiscard]] std::string_view fib_source();

/// Convolution of x[8] (in data memory) with h[4], 8-bit shift-add multiply;
/// emits each y[n] on port 2.
[[nodiscard]] std::string_view conv_source();

/// Bubble sort over the full 256-byte data memory (~650k cycles per round);
/// emits the sorted extremes each round.
[[nodiscard]] std::string_view sort_source();

/// CRC-32 (poly 0xEDB88320, LSB-first) over the 256-byte stream 0,1,...,255
/// (~20k cycles per block); emits the final CRC on ports 0..3.
[[nodiscard]] std::string_view crc_source();

/// Timer-driven event counter. The core subset has no interrupt hardware,
/// so the timer interrupt is emulated by a polled countdown: the main loop
/// mixes a working register and every 181 iterations the "ISR" fires, bumps
/// the tick counter and reports it.
[[nodiscard]] std::string_view irq_source();

[[nodiscard]] Program fib_program();
[[nodiscard]] Program conv_program();

/// All workload names, in presentation order: "fib", "conv", "sort", "crc",
/// "irq". Shared spelling with the MSP430 registry and the pipeline's
/// workload lookup.
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Source / assembled program by registry name; fails on unknown names.
[[nodiscard]] std::string_view workload_source(std::string_view name);
[[nodiscard]] Program workload_program(std::string_view name);

} // namespace ripple::cores::avr
