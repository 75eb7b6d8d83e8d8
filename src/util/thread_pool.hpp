// A minimal fixed-size thread pool.
//
// The MATE search is embarrassingly parallel over faulty wires (the paper
// parallelized the same axis with multiprocessing); parallel_for_index is the
// only primitive it needs. Work is claimed in chunks off a shared atomic
// counter (dynamic scheduling), so per-index overhead stays negligible even
// for fine-grained loops while skewed item costs still balance across
// workers. Exceptions thrown by work items are captured and rethrown on the
// caller's thread (first one wins).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ripple {

class ThreadPool {
public:
  /// `threads == 0` selects hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a parallel_for_index: the workers plus the caller,
  /// which drains work too.
  [[nodiscard]] std::size_t participants() const {
    return workers_.size() + 1;
  }

  /// Run `fn(i)` for every i in [0, n), distributing work over the pool.
  /// Blocks until all iterations finished. Rethrows the first exception.
  /// `grain` is the number of indices claimed per scheduling step; 0 picks
  /// a batch size from n and the worker count (n/threads split into a few
  /// waves so uneven item costs can still rebalance).
  void parallel_for_index(std::size_t n,
                          const std::function<void(std::size_t)>& fn,
                          std::size_t grain = 0);

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

} // namespace ripple
