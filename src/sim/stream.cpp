#include "sim/stream.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace ripple::sim {

// --- resident trace memory accounting --------------------------------------

namespace trace_memory {
namespace {
std::atomic<std::size_t> g_current{0};
std::atomic<std::size_t> g_peak{0};
} // namespace

void add(std::size_t bytes) {
  const std::size_t now = g_current.fetch_add(bytes) + bytes;
  std::size_t peak = g_peak.load();
  while (now > peak && !g_peak.compare_exchange_weak(peak, now)) {
  }
}

void sub(std::size_t bytes) { g_current.fetch_sub(bytes); }

std::size_t current() { return g_current.load(); }

std::size_t peak() { return g_peak.load(); }

void reset_peak() { g_peak.store(g_current.load()); }

} // namespace trace_memory

// --- chunk views ------------------------------------------------------------

TransposedSlice full_slice(const TransposedTrace& t) {
  TransposedSlice s;
  s.num_wires = t.num_wires();
  s.num_cycles = t.num_cycles();
  s.num_blocks = t.num_blocks();
  s.stride = t.num_blocks();
  s.words = t.words().data();
  return s;
}

TransposedSlice cycle_slice(const TransposedTrace& t, std::size_t block_begin,
                            std::size_t cycles) {
  RIPPLE_ASSERT(block_begin * 64 + cycles <= t.num_cycles(),
                "slice past end of trace");
  TransposedSlice s;
  s.num_wires = t.num_wires();
  s.num_cycles = cycles;
  s.num_blocks = (cycles + 63) / 64;
  s.stride = t.num_blocks();
  s.words = t.words().data() + block_begin;
  return s;
}

TraceChunk make_owned_chunk(std::size_t index, std::size_t base_cycle,
                            TransposedTrace&& chunk) {
  auto* owned = new TransposedTrace(std::move(chunk));
  const std::size_t bytes = owned->words().size() * sizeof(std::uint64_t);
  trace_memory::add(bytes);
  TraceChunk c;
  c.index = index;
  c.base_cycle = base_cycle;
  c.owned = std::shared_ptr<const TransposedTrace>(
      owned, [bytes](const TransposedTrace* p) {
        trace_memory::sub(bytes);
        delete p;
      });
  c.slice = full_slice(*c.owned);
  return c;
}

// --- ChunkedTraceRecorder ----------------------------------------------------

ChunkedTraceRecorder::ChunkedTraceRecorder(std::size_t num_wires,
                                           std::size_t total_cycles,
                                           std::size_t chunk_cycles,
                                           TraceSink& sink,
                                           std::size_t first_cycle)
    : num_wires_(num_wires),
      total_cycles_(total_cycles),
      chunk_cycles_(chunk_cycles),
      sink_(&sink),
      first_cycle_(first_cycle),
      row_words_((num_wires + 63) / 64) {
  RIPPLE_CHECK(chunk_cycles_ > 0 && chunk_cycles_ % 64 == 0,
               "chunk size must be a positive multiple of 64 cycles, got ",
               chunk_cycles_);
  RIPPLE_CHECK(first_cycle_ % chunk_cycles_ == 0,
               "first_cycle must be chunk-aligned");
  RIPPLE_CHECK(first_cycle_ <= total_cycles_,
               "first_cycle past total_cycles");
  rows_.assign(64 * row_words_, 0);
  trace_memory::add(rows_.size() * sizeof(std::uint64_t));
  chunk_base_ = first_cycle_;
  if (chunk_base_ < total_cycles_) begin_chunk();
}

ChunkedTraceRecorder::~ChunkedTraceRecorder() {
  trace_memory::sub(rows_.size() * sizeof(std::uint64_t));
  // Abandoned mid-chunk (exception unwind): release the chunk accounting.
  if (!chunk_words_.empty()) {
    trace_memory::sub(chunk_words_.size() * sizeof(std::uint64_t));
  }
}

void ChunkedTraceRecorder::begin_chunk() {
  chunk_len_ = std::min(chunk_cycles_, total_cycles_ - chunk_base_);
  chunk_blocks_ = (chunk_len_ + 63) / 64;
  chunk_words_.assign(num_wires_ * chunk_blocks_, 0);
  trace_memory::add(chunk_words_.size() * sizeof(std::uint64_t));
  block_fill_ = 0;
}

void ChunkedTraceRecorder::flush_block() {
  // Same gather/transpose/scatter as the whole-trace TransposedTrace
  // constructor, but the destination is the current chunk's storage.
  const std::size_t flushed = (first_cycle_ + cycle_) - chunk_base_;
  const std::size_t block = (flushed - block_fill_) / 64;
  std::uint64_t tmp[64];
  for (std::size_t j = 0; j < row_words_; ++j) {
    for (std::size_t k = 0; k < 64; ++k) {
      const std::size_t rev = 63 - k;
      tmp[k] = rev < block_fill_ ? rows_[rev * row_words_ + j] : 0;
    }
    detail::transpose64(tmp);
    const std::size_t wires_here = std::min<std::size_t>(
        64, num_wires_ - j * 64);
    for (std::size_t i = 0; i < wires_here; ++i) {
      chunk_words_[(j * 64 + i) * chunk_blocks_ + block] = tmp[63 - i];
    }
  }
  block_fill_ = 0;
}

void ChunkedTraceRecorder::emit_chunk() {
  const std::size_t bytes = chunk_words_.size() * sizeof(std::uint64_t);
  TransposedTrace t = TransposedTrace::from_words(num_wires_, chunk_len_,
                                                  std::move(chunk_words_));
  chunk_words_.clear();
  // Accounting moves from the recorder to the emitted chunk's owner.
  trace_memory::sub(bytes);
  sink_->on_chunk(make_owned_chunk(chunk_base_ / chunk_cycles_, chunk_base_,
                                   std::move(t)));
}

void ChunkedTraceRecorder::append_row(const BitVec& values) {
  RIPPLE_ASSERT(!finished_, "append_row after finish()");
  RIPPLE_CHECK(first_cycle_ + cycle_ < total_cycles_,
               "more rows than total_cycles");
  RIPPLE_ASSERT(values.words().size() == row_words_,
                "row width does not match num_wires");
  std::copy(values.words().begin(), values.words().end(),
            rows_.begin() + static_cast<std::ptrdiff_t>(
                                block_fill_ * row_words_));
  ++block_fill_;
  ++cycle_;
  if (block_fill_ == 64) flush_block();
  const std::size_t filled = (first_cycle_ + cycle_) - chunk_base_;
  if (filled == chunk_len_) {
    if (block_fill_ > 0) flush_block();
    emit_chunk();
    chunk_base_ += chunk_len_;
    if (chunk_base_ < total_cycles_) begin_chunk();
  }
}

void ChunkedTraceRecorder::finish() {
  RIPPLE_ASSERT(!finished_, "finish() called twice");
  RIPPLE_CHECK(first_cycle_ + cycle_ == total_cycles_,
               "finish() after ", cycle_, " rows, expected ",
               total_cycles_ - first_cycle_);
  finished_ = true;
}

// --- AsyncTraceSink ----------------------------------------------------------

struct AsyncTraceSink::Impl {
  TraceSink* inner;

  std::mutex mutex;
  std::condition_variable cv; // producer, consumer and drain all wait here
  std::optional<TraceChunk> pending; // handed over, not yet taken
  bool stop = false;
  bool busy = false;
  std::exception_ptr error;
  std::thread worker;

  void worker_loop() {
    std::unique_lock lock(mutex);
    while (true) {
      cv.wait(lock, [this] { return stop || pending.has_value(); });
      if (!pending) return; // stopped with nothing handed over
      TraceChunk chunk = std::move(*pending);
      pending.reset();
      busy = true;
      lock.unlock();
      std::exception_ptr thrown;
      {
        obs::Span span("stream", "chunk_consume");
        if (span.active()) {
          span.set_detail(strprintf("chunk %zu", chunk.index));
        }
        try {
          inner->on_chunk(std::move(chunk));
        } catch (...) {
          thrown = std::current_exception();
        }
      }
      lock.lock();
      if (thrown != nullptr && error == nullptr) error = thrown;
      busy = false;
      cv.notify_all();
    }
  }
};

AsyncTraceSink::AsyncTraceSink(TraceSink& inner)
    : impl_(std::make_unique<Impl>()) {
  impl_->inner = &inner;
  impl_->worker = std::thread([this] { impl_->worker_loop(); });
}

AsyncTraceSink::~AsyncTraceSink() {
  {
    std::lock_guard lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->worker.join();
}

void AsyncTraceSink::on_chunk(TraceChunk chunk) {
  std::unique_lock lock(impl_->mutex);
  // Hand over only once the worker is idle: at most one finished chunk is
  // alive downstream (handed over or being consumed) while the producer
  // fills the next, keeping resident trace memory at two chunks. No chunk
  // is handed over after a consumer error, so none is ever dropped.
  impl_->cv.wait(lock, [this] {
    return (!impl_->pending && !impl_->busy) || impl_->error != nullptr;
  });
  if (impl_->error != nullptr) std::rethrow_exception(impl_->error);
  impl_->pending = std::move(chunk);
  impl_->cv.notify_all();
}

void AsyncTraceSink::drain() {
  std::unique_lock lock(impl_->mutex);
  impl_->cv.wait(lock, [this] { return !impl_->pending && !impl_->busy; });
  if (impl_->error != nullptr) std::rethrow_exception(impl_->error);
}

// --- TransposedTraceSource ---------------------------------------------------

TransposedTraceSource::TransposedTraceSource(const TransposedTrace& trace,
                                             std::size_t chunk_cycles)
    : trace_(&trace), chunk_cycles_(chunk_cycles) {
  RIPPLE_CHECK(chunk_cycles_ > 0 && chunk_cycles_ % 64 == 0,
               "chunk size must be a positive multiple of 64 cycles, got ",
               chunk_cycles_);
}

std::size_t TransposedTraceSource::num_wires() const {
  return trace_->num_wires();
}

std::size_t TransposedTraceSource::num_cycles() const {
  return trace_->num_cycles();
}

void TransposedTraceSource::stream(TraceSink& sink) {
  const std::size_t cycles = trace_->num_cycles();
  for (std::size_t base = 0, index = 0; base < cycles;
       base += chunk_cycles_, ++index) {
    const std::size_t len = std::min(chunk_cycles_, cycles - base);
    TraceChunk c;
    c.index = index;
    c.base_cycle = base;
    c.slice = cycle_slice(*trace_, base / 64, len);
    sink.on_chunk(std::move(c));
  }
}

// --- WireCapture / TeeSource / gather_trace -------------------------------

WireCapture::WireCapture(std::size_t num_cycles, std::vector<WireId> wires)
    : wires_(std::move(wires)), cycles_(num_cycles),
      blocks_((num_cycles + 63) / 64), words_(wires_.size() * blocks_, 0) {}

void WireCapture::on_chunk(TraceChunk chunk) {
  const TransposedSlice& slice = chunk.slice;
  RIPPLE_CHECK(chunk.base_cycle == captured_ && captured_ % 64 == 0 &&
                   captured_ + slice.num_cycles <= cycles_,
               "trace chunks must cover the declared cycles in order");
  const std::size_t block = captured_ / 64;
  for (std::size_t i = 0; i < wires_.size(); ++i) {
    RIPPLE_CHECK(wires_[i].index() < slice.num_wires, "captured wire ",
                 wires_[i].index(), " lies outside a ", slice.num_wires,
                 "-wire trace");
    std::copy_n(slice.wire_words(wires_[i].index()), slice.num_blocks,
                words_.begin() +
                    static_cast<std::ptrdiff_t>(i * blocks_ + block));
  }
  captured_ += slice.num_cycles;
}

TransposedTrace WireCapture::take() {
  RIPPLE_CHECK(captured_ == cycles_,
               "trace source delivered a different cycle count than "
               "declared");
  return TransposedTrace::from_words(wires_.size(), cycles_,
                                     std::move(words_));
}

void TeeSource::stream(TraceSink& sink) {
  struct Tee final : TraceSink {
    const std::vector<TraceSink*>* taps;
    TraceSink* sink;
    void on_chunk(TraceChunk chunk) override {
      for (TraceSink* tap : *taps) tap->on_chunk(chunk);
      sink->on_chunk(std::move(chunk));
    }
  };
  Tee tee;
  tee.taps = &taps_;
  tee.sink = &sink;
  inner_->stream(tee);
}

TransposedTrace gather_trace(TraceSource& source) {
  std::vector<WireId> wires;
  wires.reserve(source.num_wires());
  for (std::size_t w = 0; w < source.num_wires(); ++w) {
    wires.push_back(WireId{static_cast<WireId::value_type>(w)});
  }
  WireCapture gather(source.num_cycles(), std::move(wires));
  source.stream(gather);
  return gather.take();
}

} // namespace ripple::sim
