// Streaming MATE evaluation over chunked transposed traces: the one
// evaluate/select engine, and (BenignMaskSink) the campaign's pruning
// decisions on its golden run.
//
// The accumulators score a trace chunk-by-chunk from a sim::TraceSource with
// the word-parallel kernel (64 cycles per machine word): only one chunk of
// trace bits is resident at a time, and with a sim::AsyncTraceSink in front
// the simulator produces chunk k+1 while the accumulator scores chunk k. A
// whole in-memory sim::TransposedTrace is scored through a
// sim::TransposedTraceSource.
//
// Equivalence contract: chunk boundaries are 64-cycle aligned (enforced by
// the recorder), so each chunk's block masks and per-block words are exactly
// the corresponding span of the whole-trace transpose. All merged state is
// integer counters (commutative, exact), and the derived doubles go through
// detail::finalize_eval — the results are therefore byte-for-byte
// identical for every chunk size, thread count and overlap setting, and to
// the scalar oracles of tests/support (eval_stream_test asserts this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mate/eval.hpp"
#include "mate/mate.hpp"
#include "mate/select.hpp"
#include "sim/stream.hpp"
#include "util/bitvec.hpp"

namespace ripple::mate {

namespace detail {
struct MatePlan; // one MATE as the word-parallel kernel reads it
} // namespace detail

/// Incremental MATE evaluation over in-order 64-aligned trace chunks.
///
///   EvalAccumulator acc(set);
///   for each chunk: acc.consume(chunk.slice, chunk.base_cycle);
///   EvalResult r = acc.finish();
///
/// Chunks must arrive in cycle order with no gaps; every chunk except the
/// last must cover a multiple of 64 cycles.
class EvalAccumulator {
 public:
  explicit EvalAccumulator(const MateSet& set, std::size_t threads = 0);
  ~EvalAccumulator();

  EvalAccumulator(const EvalAccumulator&) = delete;
  EvalAccumulator& operator=(const EvalAccumulator&) = delete;

  /// Score one chunk. `base_cycle` must equal cycles_consumed() (in-order,
  /// gap-free streaming).
  void consume(const sim::TransposedSlice& slice, std::size_t base_cycle);

  [[nodiscard]] std::size_t cycles_consumed() const { return cycles_; }

  /// Finalize counters into an EvalResult. The accumulator is spent after
  /// this call.
  [[nodiscard]] EvalResult finish();

 private:
  const MateSet* set_;
  std::size_t threads_;
  std::vector<detail::MatePlan> plans_;
  std::vector<std::size_t> triggers_; // per MATE
  std::size_t masked_faults_ = 0;
  std::size_t cycles_ = 0;

  friend class RankAccumulator;
};

/// Incremental ranking over a replayable trace stream. Ranking needs two
/// passes over the trace (whole-trace masking volumes first, then per-cycle
/// marginal gains in global visit order), so the trace is streamed twice:
///
///   RankAccumulator acc(set);
///   for each chunk: acc.consume_volumes(slice, base);   // pass 1
///   acc.begin_gains();
///   for each chunk: acc.consume_gains(slice, base);     // pass 2
///   SelectionResult r = acc.finish();
///
/// No whole-trace trigger lists are materialized: pass 2 re-derives each
/// block's trigger words from the chunk (cheap — the same AND-tree as pass
/// 1) and builds only 64 cycles of trigger lists at a time, keeping memory
/// O(chunk x wires).
class RankAccumulator {
 public:
  explicit RankAccumulator(const MateSet& set, std::size_t threads = 0);

  RankAccumulator(const RankAccumulator&) = delete;
  RankAccumulator& operator=(const RankAccumulator&) = delete;

  void consume_volumes(const sim::TransposedSlice& slice,
                       std::size_t base_cycle);

  /// Freeze pass-1 volumes into the global visit order. Must be called once,
  /// between the last consume_volumes and the first consume_gains.
  void begin_gains();

  void consume_gains(const sim::TransposedSlice& slice,
                     std::size_t base_cycle);

  [[nodiscard]] SelectionResult finish();

 private:
  EvalAccumulator volumes_;
  EvalResult eval_;                  // valid after begin_gains()
  std::vector<std::size_t> rank_of_; // valid after begin_gains()
  std::vector<std::size_t> hits_;    // per MATE marginal-gain credit
  std::size_t gain_cycles_ = 0;
  bool gains_begun_ = false;
};

/// Stream `source` once through an EvalAccumulator. With `overlap`, chunks
/// are scored on a sim::AsyncTraceSink worker thread while the source
/// produces the next one; without it, scoring runs inline on the caller.
/// Identical results either way.
[[nodiscard]] EvalResult evaluate_mates_stream(const MateSet& set,
                                               sim::TraceSource& source,
                                               std::size_t threads = 0,
                                               bool overlap = true);

/// Stream `source` twice (volumes, then gains) through a RankAccumulator.
/// Requires source.replayable().
[[nodiscard]] SelectionResult rank_mates_stream(const MateSet& set,
                                                sim::TraceSource& source,
                                                std::size_t threads = 0,
                                                bool overlap = true);

/// Which faults the triggered MATEs prove benign, read chunk by chunk:
/// take()[i] has bit c set when some MATE masking set.faulty_wires[i]
/// triggers in cycle c. The evaluate kernel's per-block trigger words, ORed
/// into one cycle bitmask per faulty wire — what a HAFI fabric checks
/// online against the golden run. Chunks must cover `num_cycles` cycles in
/// order; `set` must outlive the sink.
class BenignMaskSink final : public sim::TraceSink {
 public:
  BenignMaskSink(const MateSet& set, std::size_t num_cycles);
  ~BenignMaskSink() override;

  void on_chunk(sim::TraceChunk chunk) override;

  /// The masks, one per faulty wire. Throws ripple::Error unless the chunks
  /// covered every declared cycle.
  [[nodiscard]] std::vector<BitVec> take();

 private:
  std::vector<detail::MatePlan> plans_;
  std::size_t cycles_;
  std::size_t consumed_ = 0;
  std::vector<std::vector<std::uint64_t>> words_; // per faulty wire
};

/// A BenignMaskSink over one stream of `source`.
[[nodiscard]] std::vector<BitVec> benign_masks(const MateSet& set,
                                               sim::TraceSource& source);

} // namespace ripple::mate
