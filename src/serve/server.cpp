#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/protocol.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace ripple::serve {

struct Server::Session {
  explicit Session(Socket s) : socket(std::move(s)) {}
  Socket socket;
};

/// EventSink over a session's socket. Writes are already serialized per
/// execution (broadcast holds the execution lock), and a session attaches
/// to exactly one execution, so no extra locking is needed here. Any send
/// failure marks the sink dead; the execution drops it and keeps running.
class Server::SocketSink final : public EventSink {
public:
  explicit SocketSink(std::shared_ptr<Session> session)
      : session_(std::move(session)) {}

  bool deliver(const Frame& frame) override {
    try {
      send_frame(session_->socket, frame);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

private:
  std::shared_ptr<Session> session_;
};

/// StageObserver bridging one execution's pipeline events onto the wire:
/// every attached client sees the stages and progress lines the way a local
/// ProgressObserver would.
class Server::BroadcastObserver final : public pipeline::StageObserver {
public:
  explicit BroadcastObserver(std::shared_ptr<Execution> execution)
      : execution_(std::move(execution)) {}

  void stage_begin(std::string_view stage, std::string_view detail) override {
    execution_->broadcast(make_stage_begin_frame(stage, detail));
  }
  void stage_end(const pipeline::StageStats& stats) override {
    execution_->broadcast(make_stage_end_frame(stats));
  }
  void progress(std::string_view message) override {
    execution_->broadcast(make_log_frame(message));
  }
  void campaign_progress(const pipeline::CampaignProgress& p) override {
    // Record first so a Stats snapshot taken between the two calls already
    // sees the tick, then narrate it to the attached clients.
    execution_->update_progress(p);
    execution_->broadcast(
        make_log_frame(pipeline::format_campaign_progress(p)));
  }

private:
  std::shared_ptr<Execution> execution_;
};

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<pipeline::ArtifactCache>(config_.cache_dir,
                                             !config_.cache_dir.empty())),
      report_(std::make_shared<pipeline::JsonReportObserver>()),
      scheduler_(config_.threads) {}

Server::~Server() { stop(); }

void Server::start() {
  RIPPLE_CHECK(listener_ == nullptr, "server already started");
  listener_ = std::make_unique<UnixListener>(config_.socket_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  stopping_ = true;
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard lock(mutex_);
    for (const auto& session : sessions_) session->socket.shutdown_both();
  }
  // Session threads can still spawn executor threads while we join, so
  // drain until the list stays empty.
  while (true) {
    std::vector<std::thread> threads;
    {
      std::lock_guard lock(mutex_);
      threads.swap(threads_);
    }
    if (threads.empty()) break;
    for (std::thread& t : threads) t.join();
  }
  {
    std::lock_guard lock(mutex_);
    sessions_.clear();
  }
}

void Server::accept_loop() {
  while (!stopping_) {
    Socket socket = listener_->accept();
    if (!socket.valid()) break; // listener closed: shutdown
    auto session = std::make_shared<Session>(std::move(socket));
    std::lock_guard lock(mutex_);
    ++sessions_accepted_;
    sessions_.push_back(session);
    threads_.emplace_back([this, session] { handle_session(session); });
  }
}

void Server::handle_session(const std::shared_ptr<Session>& session) {
  std::shared_ptr<Execution> execution;
  std::shared_ptr<SocketSink> sink;
  try {
    auto frame = recv_frame(session->socket);
    if (frame.has_value() && frame->type == MsgType::kStatsRequest) {
      ByteReader r(frame->payload);
      const std::uint32_t version = r.u32();
      RIPPLE_CHECK(version == kProtocolVersion,
                   "client speaks protocol version ", version,
                   ", this daemon expects ", kProtocolVersion);
      r.expect_done();
      send_frame(session->socket, make_stats_frame(service_stats()));
    } else if (frame.has_value()) {
      pipeline::CampaignRequest request = decode_submit(*frame);
      // The daemon always checkpoints: an identical re-submission after a
      // restart replays finished shards instead of re-executing them.
      request.resume = true;

      const auto submission = registry_.submit(request);
      execution = submission.execution;
      // Spawn the executor before answering: if the client vanishes mid
      // handshake the campaign still runs to completion (checkpointing its
      // shards) and the registry entry is guaranteed to be erased — an
      // execution must never wait on this session's socket.
      if (submission.is_new) {
        ++executions_started_;
        std::lock_guard lock(mutex_);
        threads_.emplace_back([this, execution] { execute(execution); });
      }
      send_frame(session->socket, make_accepted_frame(execution->checksum(),
                                                      !submission.is_new));
      sink = std::make_shared<SocketSink>(session);
      execution->attach(sink);
      // Block until the client disconnects (or stop() shuts the socket).
      // Clients send nothing after Submit; stray frames are ignored.
      while (recv_frame(session->socket).has_value()) {
      }
    }
  } catch (const std::exception& e) {
    try {
      send_frame(session->socket, make_error_frame(e.what()));
    } catch (const std::exception&) {
    }
  }
  // A disconnect detaches only this session's sink — a shared execution
  // keeps running for the other clients (or, with none left, to finish its
  // checkpoints).
  if (execution != nullptr && sink != nullptr) execution->detach(sink);
  std::lock_guard lock(mutex_);
  sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), session),
                  sessions_.end());
}

void Server::execute(const std::shared_ptr<Execution>& execution) {
  const pipeline::CampaignRequest& request = execution->request();
  try {
    // A private pipeline per execution (stage state and observers are
    // execution-local) over the shared, thread-safe artifact cache.
    pipeline::PipelineConfig pipeline_config;
    pipeline_config.cache_dir = config_.cache_dir;
    pipeline_config.use_cache = cache_->enabled();
    pipeline_config.threads = config_.threads;
    pipeline_config.shard_executor =
        [this](std::size_t n, const std::function<void(std::size_t)>& task) {
          scheduler_.run(n, task);
        };
    pipeline::CampaignPipeline pipeline(pipeline_config, cache_);
    pipeline.add_observer(std::make_shared<BroadcastObserver>(execution));
    pipeline.add_observer(report_);
    // Local narration too: each concurrent execution gets its own observer
    // labeled with the short request checksum, and every line is a single
    // atomic write, so interleaved campaigns stay readable on stderr.
    pipeline.add_observer(std::make_shared<pipeline::ProgressObserver>(
        stderr, strprintf("%08llx", static_cast<unsigned long long>(
                                        execution->checksum() >> 32))));

    execution->broadcast(make_log_frame(
        strprintf("[rippled] executing %s (checksum %016llx)",
                  pipeline::request_summary(request).c_str(),
                  static_cast<unsigned long long>(execution->checksum()))));

    const hafi::CampaignResult result = pipeline.run(request);
    ByteWriter w;
    pipeline::write_campaign_result(w, result);
    execution->finish(make_result_frame(execution->checksum(), w.bytes()));
  } catch (const std::exception& e) {
    execution->finish(make_error_frame(e.what()));
  }
  registry_.erase(execution->checksum());
}

ServiceStats Server::service_stats() const {
  ServiceStats s;
  {
    std::lock_guard lock(mutex_);
    s.sessions = sessions_accepted_;
  }
  const ExecutionRegistry::Counters counters = registry_.counters();
  s.submissions = counters.submitted;
  s.deduped = counters.deduped;
  s.executions = executions_started_;
  s.in_flight = registry_.in_flight();

  const FairScheduler::Stats sched = scheduler_.stats();
  s.scheduler_threads = sched.threads;
  s.scheduler_streams = sched.streams;
  s.scheduler_queued = sched.queued;

  s.cache_enabled = cache_->enabled();
  const pipeline::ArtifactCache::Stats cs = cache_->stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_stores = cs.stores;

  auto executions = registry_.snapshot();
  std::sort(executions.begin(), executions.end(),
            [](const auto& a, const auto& b) {
              return a->checksum() < b->checksum();
            });
  s.campaigns.reserve(executions.size());
  for (const auto& execution : executions) {
    const pipeline::CampaignProgress p = execution->progress();
    CampaignStats c;
    c.checksum = execution->checksum();
    c.summary = pipeline::request_summary(execution->request());
    c.shards_done = p.shards_done;
    c.num_shards = p.num_shards;
    c.executed = p.executed_total;
    c.inj_per_sec = p.inj_per_sec;
    c.eta_seconds = p.eta_seconds;
    c.finished = execution->finished();
    c.clients = execution->num_sinks();
    s.campaigns.push_back(std::move(c));
  }
  return s;
}

Server::Stats Server::stats() const {
  Stats s;
  {
    std::lock_guard lock(mutex_);
    s.sessions = sessions_accepted_;
  }
  const ExecutionRegistry::Counters c = registry_.counters();
  s.submissions = c.submitted;
  s.deduped = c.deduped;
  s.executions = executions_started_;
  return s;
}

} // namespace ripple::serve
