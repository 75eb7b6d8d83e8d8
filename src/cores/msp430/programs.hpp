// Evaluation workloads for the MSP430 core: 16-bit variants of the AVR
// ones. The paper's two short kernels (iterative Fibonacci, 1-D convolution
// with software shift-add multiply) are joined by three long-running
// workloads for million-cycle streaming traces (bubble sort over a 128-word
// array, a CRC-32 loop, and a timer-driven event counter). All loop forever
// and report results through the memory-mapped output port.
#pragma once

#include <string_view>
#include <vector>

#include "cores/msp430/assembler.hpp"

namespace ripple::cores::msp430 {

[[nodiscard]] std::string_view fib_source();
[[nodiscard]] std::string_view conv_source();

/// Bubble sort over a 128-word array (~150k cycles per round); emits the
/// sorted extremes each round.
[[nodiscard]] std::string_view sort_source();

/// CRC-32 (poly 0xEDB88320, LSB-first) over the 256-byte stream 0..255
/// (~20k cycles per block); emits the final CRC low/high words.
[[nodiscard]] std::string_view crc_source();

/// Timer-driven event counter; the timer interrupt is emulated by a polled
/// countdown (the core subset has no interrupt hardware).
[[nodiscard]] std::string_view irq_source();

[[nodiscard]] Image fib_image();
[[nodiscard]] Image conv_image();

/// All workload names, in presentation order: "fib", "conv", "sort", "crc",
/// "irq". Shared spelling with the AVR registry and the pipeline's workload
/// lookup.
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Source / assembled image by registry name; fails on unknown names.
[[nodiscard]] std::string_view workload_source(std::string_view name);
[[nodiscard]] Image workload_image(std::string_view name);

} // namespace ripple::cores::msp430
