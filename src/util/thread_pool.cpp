#include "util/thread_pool.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace ripple {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

/// Shared state of one parallel_for_index call; a single heap allocation
/// instead of one std::function per index. Workers may still observe the
/// claim counter after the caller finished waiting, so the state is kept
/// alive by shared_ptr until the last enqueued job returns.
struct ForLoopState {
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* fn = nullptr; // valid while remaining > 0
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  /// Claim and run batches until the index space is exhausted.
  void drain() {
    while (true) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + grain);
      obs::Span span("pool", "batch");
      for (std::size_t i = begin; i < end; ++i) {
        try {
          if (!failed.load(std::memory_order_relaxed)) (*fn)(i);
        } catch (...) {
          bool expected = false;
          if (failed.compare_exchange_strong(expected, true)) {
            error = std::current_exception();
          }
        }
      }
      if (remaining.fetch_sub(end - begin) == end - begin) {
        std::lock_guard lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

} // namespace

void ThreadPool::parallel_for_index(std::size_t n,
                                    const std::function<void(std::size_t)>& fn,
                                    std::size_t grain) {
  if (n == 0) return;

  if (grain == 0) {
    // A few batches per participant: large enough that scheduling (one
    // atomic fetch_add per batch) is noise even for per-index work in the
    // tens of nanoseconds, small enough that skewed item costs (MATE search
    // cones differ by orders of magnitude) still rebalance.
    grain = std::max<std::size_t>(1, n / (participants() * 8));
  }

  auto state = std::make_shared<ForLoopState>();
  state->n = n;
  state->grain = grain;
  state->fn = &fn;
  state->remaining.store(n);

  const std::size_t jobs =
      std::min((n + grain - 1) / grain, workers_.size());
  {
    std::lock_guard lock(mutex_);
    RIPPLE_ASSERT(!stopping_);
    for (std::size_t i = 0; i < jobs; ++i) {
      queue_.push([state] { state->drain(); });
    }
  }
  cv_.notify_all();

  // The calling thread participates too, so a pool is usable even with
  // a single worker under heavy nesting.
  state->drain();

  std::unique_lock lock(state->done_mutex);
  state->done_cv.wait(lock, [&] { return state->remaining.load() == 0; });

  if (state->error) std::rethrow_exception(state->error);
}

} // namespace ripple
