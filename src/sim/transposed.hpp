// Column-major ("transposed") traces for bit-parallel MATE evaluation.
//
// A Trace stores one wire-value BitVec per cycle (row-major: the natural
// output order of the simulator). The bit-parallel evaluation kernel
// (mate/stream.hpp) wants the opposite layout: per wire, one cycle-packed
// bitstream, so that 64 cycles of a literal test collapse into a single
// XOR+AND on machine words. A TransposedTrace is built once from a Trace
// (64x64 bit-matrix block transpose) and is reusable across evaluate and
// select runs on the same trace; streamed trace chunks are TransposedTraces
// of their cycle ranges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/trace.hpp"
#include "util/assert.hpp"

namespace ripple::sim {

namespace detail {
/// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3, widened to 64
/// bits). With the rows loaded in reverse order, the result rows come out in
/// reverse order too, which the caller undoes when scattering into the wire
/// streams. Shared between the whole-trace TransposedTrace constructor and
/// the chunked recorder (sim/stream.hpp).
void transpose64(std::uint64_t x[64]);
} // namespace detail

class TransposedTrace {
public:
  TransposedTrace() = default;
  explicit TransposedTrace(const Trace& trace);

  [[nodiscard]] std::size_t num_wires() const { return num_wires_; }
  [[nodiscard]] std::size_t num_cycles() const { return num_cycles_; }

  /// Number of 64-cycle blocks = words per wire stream.
  [[nodiscard]] std::size_t num_blocks() const { return num_blocks_; }

  /// Wire `wire`'s cycle stream: bit c of word b is the wire's value in
  /// cycle 64*b + c. Bits past num_cycles() in the last word are zero.
  [[nodiscard]] std::span<const std::uint64_t> wire_stream(
      std::size_t wire) const {
    RIPPLE_ASSERT(wire < num_wires_, "wire ", wire, " out of range ",
                  num_wires_);
    return {bits_.data() + wire * num_blocks_, num_blocks_};
  }

  /// Mask of the cycles that exist in block `block`: all-ones except for
  /// the final block of a trace whose length is not a multiple of 64.
  [[nodiscard]] std::uint64_t block_mask(std::size_t block) const {
    RIPPLE_ASSERT(block < num_blocks_);
    const std::size_t rem = num_cycles_ % 64;
    if (block + 1 < num_blocks_ || rem == 0) return ~std::uint64_t{0};
    return ~std::uint64_t{0} >> (64 - rem);
  }

  /// Single-bit probe (tests / debugging; hot paths read wire_stream()).
  [[nodiscard]] bool value(std::size_t cycle, WireId w) const {
    RIPPLE_ASSERT(cycle < num_cycles_);
    const std::span<const std::uint64_t> s = wire_stream(w.index());
    return (s[cycle >> 6] >> (cycle & 63)) & 1u;
  }

  /// Raw backing words, wire-major (serialization).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return bits_;
  }

  /// Rebuild from serialized words (artifact deserialization). `words` must
  /// hold num_wires * ceil(num_cycles / 64) entries.
  [[nodiscard]] static TransposedTrace from_words(
      std::size_t num_wires, std::size_t num_cycles,
      std::vector<std::uint64_t> words);

private:
  std::size_t num_wires_ = 0;
  std::size_t num_cycles_ = 0;
  std::size_t num_blocks_ = 0;
  std::vector<std::uint64_t> bits_; // wire-major, num_blocks_ words per wire
};

} // namespace ripple::sim
