// The campaign service: a resident daemon multiplexing concurrent campaign
// requests over one shared artifact cache and one fair worker pool.
//
// Architecture (one box per thread kind):
//
//   accept loop ──> session thread (per connection)
//                     │  reads the Submit, dedupes via ExecutionRegistry,
//                     │  answers Accepted, attaches a SocketSink, then
//                     │  blocks reading — EOF means the client left.
//                     └─> executor thread (per *new* execution only)
//                           builds a private CampaignPipeline over the
//                           shared cache, observers broadcast every stage
//                           event to all attached clients, shards fan out
//                           through the shared FairScheduler, terminal
//                           Result/Error finishes the execution.
//
// Requests with equal checksums share one executor: the second client
// attaches to the first's execution, replays its event history and gets the
// same result bytes. `resume` is forced on, so a re-submission after the
// daemon restarts replays shard checkpoints from the cache instead of
// re-running them.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/cache.hpp"
#include "pipeline/observer.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "util/socket.hpp"

namespace ripple::serve {

struct ServerConfig {
  std::string socket_path;
  /// Shared artifact cache directory; empty disables caching (and with it
  /// shard checkpointing — restart-resume needs a cache).
  std::filesystem::path cache_dir;
  /// Shared worker-pool size (0 = hardware concurrency). Also the MATE
  /// search thread count of each execution's pipeline.
  std::size_t threads = 0;
};

class Server {
public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start accepting connections.
  void start();

  /// Stop accepting, disconnect every session, and join all threads
  /// (running executions are allowed to finish — their shards checkpoint,
  /// so an aborted daemon resumes cheaply anyway). Idempotent.
  void stop();

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] const pipeline::ArtifactCache& cache() const { return *cache_; }

  /// Server-wide stage/counter collector feeding the daemon's
  /// `--report=json` envelope; every execution's stage records land here.
  [[nodiscard]] std::shared_ptr<pipeline::JsonReportObserver> report() const {
    return report_;
  }

  struct Stats {
    std::size_t sessions = 0;    // connections accepted
    std::size_t submissions = 0; // Submit frames handled
    std::size_t deduped = 0;     // submissions attached to in-flight runs
    std::size_t executions = 0;  // campaign runs actually started
    /// Session and executor threads not yet joined: the live ones plus
    /// those finished since the last thread was spawned.
    std::size_t joinable_threads = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Full live snapshot answering a client StatsRequest: service totals,
  /// scheduler load, cache totals, per-campaign progress. Reads counters and
  /// per-execution progress records only — never blocks an execution.
  [[nodiscard]] ServiceStats service_stats() const;

private:
  struct Session;
  class SocketSink;
  class BroadcastObserver;

  void accept_loop();
  void handle_session(const std::shared_ptr<Session>& session);
  void execute(const std::shared_ptr<Execution>& execution);
  /// Start a session or executor thread running `body`; the caller holds
  /// mutex_. Joins the threads that have finished first, so a long-lived
  /// daemon keeps only its live threads and their stacks.
  void spawn_locked(std::function<void()> body);

  ServerConfig config_;
  std::shared_ptr<pipeline::ArtifactCache> cache_;
  std::shared_ptr<pipeline::JsonReportObserver> report_;
  FairScheduler scheduler_;
  ExecutionRegistry registry_;

  std::unique_ptr<UnixListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_; // guards sessions_/threads_/finished_ + counter
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::thread> threads_; // session + executor threads
  std::vector<std::thread::id> finished_; // threads_ whose body returned
  std::size_t sessions_accepted_ = 0;
  std::atomic<std::size_t> executions_started_{0};
};

} // namespace ripple::serve
