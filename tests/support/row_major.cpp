#include "support/row_major.hpp"

#include <algorithm>

#include "mate/stream.hpp"

namespace ripple::sim {

void UntransposingSink::on_chunk(TraceChunk chunk) {
  // The recorder's block transpose run backwards: per 64-cycle block and
  // 64-wire group, load the wire words in reverse, transpose, and read the
  // rows back out in reverse.
  const TransposedSlice& slice = chunk.slice;
  const std::size_t row_words = (slice.num_wires + 63) / 64;
  std::vector<std::uint64_t> rows(64 * row_words);
  std::uint64_t tmp[64];
  for (std::size_t b = 0; b < slice.num_blocks; ++b) {
    for (std::size_t j = 0; j < row_words; ++j) {
      for (std::size_t k = 0; k < 64; ++k) {
        const std::size_t wire = j * 64 + (63 - k);
        tmp[k] = wire < slice.num_wires ? slice.wire_words(wire)[b] : 0;
      }
      detail::transpose64(tmp);
      for (std::size_t c = 0; c < 64; ++c) {
        rows[c * row_words + j] = tmp[63 - c];
      }
    }
    const std::size_t cycles = std::min<std::size_t>(
        64, slice.num_cycles - b * 64);
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto row = rows.begin() + static_cast<std::ptrdiff_t>(
                                          c * row_words);
      rows_->append_row(BitVec::from_words(
          slice.num_wires,
          std::vector<std::uint64_t>(
              row, row + static_cast<std::ptrdiff_t>(row_words))));
    }
  }
}

Trace untranspose(const netlist::Netlist& n, const TransposedTrace& trace) {
  Trace rows(n);
  UntransposingSink sink(rows);
  TransposedTraceSource source(trace);
  source.stream(sink);
  return rows;
}

} // namespace ripple::sim

namespace ripple::mate {

EvalResult evaluate_mates(const MateSet& set, const sim::Trace& trace,
                          std::size_t threads) {
  const sim::TransposedTrace tt(trace);
  sim::TransposedTraceSource source(tt);
  return evaluate_mates_stream(set, source, threads, /*overlap=*/false);
}

SelectionResult rank_mates(const MateSet& set, const sim::Trace& trace,
                           std::size_t threads) {
  const sim::TransposedTrace tt(trace);
  sim::TransposedTraceSource source(tt);
  return rank_mates_stream(set, source, threads, /*overlap=*/false);
}

} // namespace ripple::mate
