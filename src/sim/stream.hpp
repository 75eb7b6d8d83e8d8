// Streaming chunked traces: bounded-memory trace recording for
// million-cycle workloads.
//
// record_trace materializes the whole trace (cycles x wires) before any
// consumer sees a bit, so both memory and latency scale with program length.
// The streaming path instead cuts the cycle axis into fixed-size chunks
// (kDefaultChunkCycles, always a multiple of the 64-cycle transpose block)
// and hands each finished chunk — already transposed into wire-major
// cycle-packed form — to a TraceSink while the simulator keeps producing the
// next one. Only O(chunk x wires) trace bits are ever resident:
//
//   simulator ──rows──> ChunkedTraceRecorder ──chunks──> AsyncTraceSink
//                         (64-row block buffer,             (worker thread,
//                          per-block transpose)              one chunk in flight)
//                                                               │
//                                                      mate::EvalAccumulator
//
// Chunk boundaries are 64-aligned, so the word-parallel kernel sees exactly
// the per-block words of the whole-trace transpose and results do not depend
// on the chunk size. All resident trace bytes are tracked by the
// trace_memory counters, which is what the pipeline's `trace_bytes_peak`
// stage counter and the stream_smoke memory bound are measured from.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/transposed.hpp"
#include "util/assert.hpp"
#include "util/bitvec.hpp"

namespace ripple::sim {

/// Default chunk size: 64Ki cycles = 1024 transpose blocks. Large enough to
/// amortize per-chunk overhead, small enough that two resident chunks of a
/// ~2k-wire core stay around 30 MB.
inline constexpr std::size_t kDefaultChunkCycles = 64 * 1024;

// --- resident trace memory accounting --------------------------------------

/// Global byte counters for resident trace storage (chunk buffers, queued
/// chunks, recorder block buffers). Thread-safe; the streaming machinery
/// calls add/sub around every allocation it owns, so current() bounds the
/// trace bytes live at any instant and peak() is the high-water mark since
/// the last reset().
namespace trace_memory {
void add(std::size_t bytes);
void sub(std::size_t bytes);
[[nodiscard]] std::size_t current();
[[nodiscard]] std::size_t peak();
/// Reset the high-water mark to the current residency (not to zero).
void reset_peak();
} // namespace trace_memory

// --- chunk views ------------------------------------------------------------

/// Borrowed wire-major view of a contiguous 64-aligned cycle range. Unifies
/// owned chunks produced by the recorder (stride == num_blocks) and zero-copy
/// slices of a whole in-memory TransposedTrace (stride == the whole trace's
/// block count). The word layout per wire is identical to
/// TransposedTrace::wire_stream.
struct TransposedSlice {
  std::size_t num_wires = 0;
  std::size_t num_cycles = 0; // cycles covered by this slice
  std::size_t num_blocks = 0; // ceil(num_cycles / 64)
  std::size_t stride = 0;     // words per wire in the backing store
  const std::uint64_t* words = nullptr; // wire 0's first block word

  [[nodiscard]] const std::uint64_t* wire_words(std::size_t wire) const {
    RIPPLE_ASSERT(wire < num_wires);
    return words + wire * stride;
  }

  /// Mask of the cycles that exist in block `block` of the slice: all-ones
  /// except for the final block when num_cycles is not a multiple of 64.
  [[nodiscard]] std::uint64_t block_mask(std::size_t block) const {
    RIPPLE_ASSERT(block < num_blocks);
    const std::size_t rem = num_cycles % 64;
    if (block + 1 < num_blocks || rem == 0) return ~std::uint64_t{0};
    return ~std::uint64_t{0} >> (64 - rem);
  }
};

/// The whole trace as a single slice.
[[nodiscard]] TransposedSlice full_slice(const TransposedTrace& t);

/// Cycles [64 * block_begin, 64 * block_begin + cycles) of `t` as a borrowed
/// slice (no copy; `t` must outlive the slice).
[[nodiscard]] TransposedSlice cycle_slice(const TransposedTrace& t,
                                          std::size_t block_begin,
                                          std::size_t cycles);

/// One finished chunk flowing through the pipeline. Cheap to move; `owned`
/// keeps recorder-produced storage alive (and its bytes accounted) for
/// exactly as long as any copy of the chunk exists. Borrowed chunks sliced
/// from a caller-owned TransposedTrace leave `owned` null.
struct TraceChunk {
  std::size_t index = 0;      // chunk number within the stream
  std::size_t base_cycle = 0; // absolute cycle of the chunk's first row
  TransposedSlice slice;
  std::shared_ptr<const TransposedTrace> owned;
};

/// Wrap an owned chunk trace into a TraceChunk whose backing bytes are
/// tracked by trace_memory until the last copy of the chunk is destroyed.
[[nodiscard]] TraceChunk make_owned_chunk(std::size_t index,
                                          std::size_t base_cycle,
                                          TransposedTrace&& chunk);

// --- sink / source contracts ------------------------------------------------

/// Consumer of finished chunks. Chunks arrive strictly in stream order
/// (chunk k before k+1, base_cycle strictly increasing); every chunk except
/// the last covers a multiple of 64 cycles. on_chunk may run on a different
/// thread than the producer when an AsyncTraceSink sits in between, but calls
/// are never concurrent with each other.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void on_chunk(TraceChunk chunk) = 0;
};

/// A replayable chunk stream: stream() delivers every chunk in order, and may
/// be called more than once (rank_mates_stream makes two passes). Replays
/// are byte-identical — the source either re-simulates deterministically or
/// replays cached chunks.
class TraceSource {
public:
  virtual ~TraceSource() = default;
  [[nodiscard]] virtual std::size_t num_wires() const = 0;
  [[nodiscard]] virtual std::size_t num_cycles() const = 0;
  [[nodiscard]] virtual std::size_t chunk_cycles() const = 0;
  virtual void stream(TraceSink& sink) = 0;
};

// --- producer machinery ------------------------------------------------------

/// Row -> chunk adapter: buffers 64 rows at a time, transposes each full
/// block straight into the chunk's wire-major storage (so only one 64-row
/// block buffer plus the chunk being filled are resident), and emits a
/// TraceChunk every chunk_cycles rows. The final partial chunk is flushed by
/// finish().
///
/// `first_cycle` (chunk-aligned) and `total_cycles` describe the absolute
/// cycle range [first_cycle, total_cycles) this recorder will see, so chunk
/// indices are absolute and the last chunk's storage is sized exactly.
class ChunkedTraceRecorder final : public RowSink {
public:
  ChunkedTraceRecorder(std::size_t num_wires, std::size_t total_cycles,
                       std::size_t chunk_cycles, TraceSink& sink,
                       std::size_t first_cycle = 0);
  ChunkedTraceRecorder(const ChunkedTraceRecorder&) = delete;
  ChunkedTraceRecorder& operator=(const ChunkedTraceRecorder&) = delete;
  ~ChunkedTraceRecorder() override;

  void append_row(const BitVec& values) override;

  /// Flush the trailing partial chunk. Must be called exactly once, after
  /// all total_cycles - first_cycle rows were appended.
  void finish();

  [[nodiscard]] std::size_t cycles_recorded() const { return cycle_; }

private:
  void flush_block();
  void begin_chunk();
  void emit_chunk();

  std::size_t num_wires_;
  std::size_t total_cycles_;
  std::size_t chunk_cycles_;
  TraceSink* sink_;
  std::size_t first_cycle_;
  std::size_t row_words_;

  std::size_t cycle_ = 0;          // rows appended so far (relative)
  std::size_t chunk_base_ = 0;     // absolute first cycle of current chunk
  std::size_t chunk_len_ = 0;      // cycles the current chunk will hold
  std::size_t chunk_blocks_ = 0;   // words per wire in the current chunk
  std::size_t block_fill_ = 0;     // rows buffered for the current block
  bool finished_ = false;

  std::vector<std::uint64_t> rows_;        // 64 x row_words_ block buffer
  std::vector<std::uint64_t> chunk_words_; // wire-major chunk storage
};

/// Forwards chunks to `inner` on a dedicated worker thread, so the producer
/// (simulator) fills chunk k+1 while the consumer (evaluation) digests chunk
/// k. on_chunk blocks until the worker has finished the previous chunk: at
/// most one finished chunk is in flight, bounding resident memory at two
/// chunks. Exceptions thrown by the consumer are rethrown from drain() (and
/// from the next on_chunk call, so a failing producer loop stops early).
class AsyncTraceSink final : public TraceSink {
public:
  explicit AsyncTraceSink(TraceSink& inner);
  AsyncTraceSink(const AsyncTraceSink&) = delete;
  AsyncTraceSink& operator=(const AsyncTraceSink&) = delete;
  ~AsyncTraceSink() override;

  void on_chunk(TraceChunk chunk) override;

  /// Wait until every handed-over chunk has been consumed; rethrows the
  /// first consumer exception, if any.
  void drain();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A whole in-memory TransposedTrace replayed as borrowed chunk slices
/// (no copies): adapts in-memory traces (the benches' setup traces scored
/// by the pipeline's evaluate/select stages) onto the streaming
/// accumulators.
class TransposedTraceSource final : public TraceSource {
public:
  /// `trace` must outlive the source. chunk_cycles must be a positive
  /// multiple of 64.
  TransposedTraceSource(const TransposedTrace& trace,
                        std::size_t chunk_cycles = kDefaultChunkCycles);

  [[nodiscard]] std::size_t num_wires() const override;
  [[nodiscard]] std::size_t num_cycles() const override;
  [[nodiscard]] std::size_t chunk_cycles() const override {
    return chunk_cycles_;
  }
  void stream(TraceSink& sink) override;

private:
  const TransposedTrace* trace_;
  std::size_t chunk_cycles_;
};

/// Copies the chosen wires' words out of every chunk into one wire-major
/// trace: wire i of take() is wires[i]. Over every wire it is gather_trace;
/// fed by a TeeSource it keeps a few wires of a stream that another consumer
/// reads, without streaming the source twice.
class WireCapture final : public TraceSink {
public:
  WireCapture(std::size_t num_cycles, std::vector<WireId> wires);

  void on_chunk(TraceChunk chunk) override;

  /// The captured trace. Throws ripple::Error unless the chunks covered
  /// every declared cycle.
  [[nodiscard]] TransposedTrace take();

private:
  std::vector<WireId> wires_;
  std::size_t cycles_;
  std::size_t blocks_;
  std::vector<std::uint64_t> words_;
  std::size_t captured_ = 0;
};

/// `inner` with a tap: stream() hands every chunk to `tap`, then to the
/// consumer, so one stream of the source feeds both. `inner` and `tap` must
/// outlive the source.
class TeeSource final : public TraceSource {
public:
  TeeSource(TraceSource& inner, TraceSink& tap) : inner_(&inner), tap_(&tap) {}

  [[nodiscard]] std::size_t num_wires() const override {
    return inner_->num_wires();
  }
  [[nodiscard]] std::size_t num_cycles() const override {
    return inner_->num_cycles();
  }
  [[nodiscard]] std::size_t chunk_cycles() const override {
    return inner_->chunk_cycles();
  }
  void stream(TraceSink& sink) override;

private:
  TraceSource* inner_;
  TraceSink* tap_;
};

/// Stream `source` once into one whole TransposedTrace, copying each
/// chunk's words into place: the inverse of TransposedTraceSource.
[[nodiscard]] TransposedTrace gather_trace(TraceSource& source);

/// Chunked counterpart of record_trace: run `sim` for `cycles` cycles and
/// emit finished TransposedTrace chunks of `chunk_cycles` cycles each to
/// `sink` instead of materializing a whole Trace. `drive(sim, cycle)` is
/// called before evaluation, exactly like record_trace.
template <typename DriveFn>
void record_trace_chunked(Simulator& sim, std::size_t cycles,
                          std::size_t chunk_cycles, TraceSink& sink,
                          DriveFn&& drive) {
  ChunkedTraceRecorder recorder(sim.netlist().num_wires(), cycles,
                                chunk_cycles, sink);
  for (std::size_t c = 0; c < cycles; ++c) {
    drive(sim, c);
    sim.eval();
    recorder.append_row(sim.values());
    sim.latch();
  }
  recorder.finish();
}

} // namespace ripple::sim
