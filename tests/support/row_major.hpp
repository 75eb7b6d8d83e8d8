// Row-major trace adapters for the tests. The pipeline holds every trace
// wire-major (sim::TransposedTrace, or a sim::TraceSource of chunks); tests
// that build small traces with sim::record_trace, and the scalar oracles
// that read them row by row, cross over here:
//   * sim::UntransposingSink -- chunks back to rows, the inverse of
//     sim::ChunkedTraceRecorder;
//   * sim::untranspose       -- a whole TransposedTrace as a row-major Trace;
//   * mate::evaluate_mates / mate::rank_mates -- the streaming accumulators
//     over an in-memory row-major trace, transposed once.
#pragma once

#include <cstddef>

#include "mate/eval.hpp"
#include "mate/select.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"

namespace ripple::sim {

/// Chunk -> row adapter: hands every cycle of each chunk, in stream order,
/// to `rows` as one row of wire values. Streaming a source into a Trace (a
/// RowSink) through it yields the row-major trace the chunks were recorded
/// from.
class UntransposingSink final : public TraceSink {
public:
  explicit UntransposingSink(RowSink& rows) : rows_(&rows) {}
  void on_chunk(TraceChunk chunk) override;

private:
  RowSink* rows_;
};

/// `trace` of `n` as one settled row per cycle.
[[nodiscard]] Trace untranspose(const netlist::Netlist& n,
                                const TransposedTrace& trace);

} // namespace ripple::sim

namespace ripple::mate {

/// Evaluate `set` over an in-memory trace: the trace is transposed once and
/// replayed through the streaming accumulator. `threads` = 0 selects
/// hardware concurrency.
[[nodiscard]] EvalResult evaluate_mates(const MateSet& set,
                                        const sim::Trace& trace,
                                        std::size_t threads = 0);

/// Rank `set` over an in-memory trace: the trace is transposed once and
/// streamed twice through the RankAccumulator.
[[nodiscard]] SelectionResult rank_mates(const MateSet& set,
                                         const sim::Trace& trace,
                                         std::size_t threads = 0);

} // namespace ripple::mate
