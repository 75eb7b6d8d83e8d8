// The campaign service, in-process: FairScheduler and ExecutionRegistry
// units, then a real Server over real Unix sockets — concurrent clients
// deduped onto one execution with byte-identical results, client
// disconnects mid-campaign, daemon restart resuming from shard checkpoints,
// and a core without a batch DUT answered with an Error frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/request.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "util/serialize.hpp"

namespace ripple::serve {
namespace {

struct TempDir {
  std::filesystem::path path;

  explicit TempDir(const char* tag) {
    const auto base = std::filesystem::temp_directory_path();
    for (int i = 0;; ++i) {
      auto candidate = base / (std::string(tag) + "_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(i));
      if (std::filesystem::create_directories(candidate)) {
        path = std::move(candidate);
        return;
      }
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// --- FairScheduler units ---------------------------------------------------

TEST(FairSchedulerTest, RunsEveryIndexExactlyOnce) {
  FairScheduler scheduler(4);
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  scheduler.run(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(FairSchedulerTest, MultiplexesConcurrentStreams) {
  FairScheduler scheduler(3);
  constexpr std::size_t kStreams = 4;
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    callers.emplace_back([&scheduler, &total] {
      scheduler.run(kN, [&total](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kStreams * kN);
}

TEST(FairSchedulerTest, RethrowsTaskExceptionToTheCaller) {
  FairScheduler scheduler(2);
  EXPECT_THROW(scheduler.run(16,
                             [](std::size_t i) {
                               if (i == 5) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool survives a failed stream and keeps serving.
  std::atomic<std::size_t> done{0};
  scheduler.run(8, [&done](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8u);
}

// --- ExecutionRegistry / Execution units -----------------------------------

pipeline::CampaignRequest small_request(std::uint64_t seed = 5) {
  pipeline::CampaignRequest request;
  request.core = "avr";
  request.config.run_cycles = 200;
  request.config.sample = 24;
  request.config.seed = seed;
  request.config.threads = 2;
  request.config.shard_size = 6; // 4 shards
  return request;
}

TEST(ExecutionRegistryTest, DedupesInFlightChecksums) {
  ExecutionRegistry registry;
  const auto a = registry.submit(small_request());
  EXPECT_TRUE(a.is_new);
  const auto b = registry.submit(small_request());
  EXPECT_FALSE(b.is_new);
  EXPECT_EQ(a.execution.get(), b.execution.get());

  // Scheduling knobs hash identically -> same execution.
  pipeline::CampaignRequest knobs = small_request();
  knobs.config.threads = 7;
  knobs.resume = true;
  EXPECT_FALSE(registry.submit(knobs).is_new);

  // A different seed is a different campaign.
  const auto other = registry.submit(small_request(6));
  EXPECT_TRUE(other.is_new);
  EXPECT_EQ(registry.in_flight(), 2u);

  const auto counters = registry.counters();
  EXPECT_EQ(counters.submitted, 4u);
  EXPECT_EQ(counters.deduped, 2u);

  registry.erase(a.execution->checksum());
  EXPECT_TRUE(registry.submit(small_request()).is_new);
}

struct RecordingSink final : EventSink {
  std::vector<Frame> frames;
  bool alive = true;
  bool deliver(const Frame& frame) override {
    if (!alive) return false;
    frames.push_back(frame);
    return true;
  }
};

TEST(ExecutionTest, LateAttacherReplaysFullHistory) {
  Execution execution(0x1234, small_request());
  execution.broadcast(make_log_frame("one"));
  execution.broadcast(make_log_frame("two"));

  const auto late = std::make_shared<RecordingSink>();
  execution.attach(late);
  ASSERT_EQ(late->frames.size(), 2u);
  EXPECT_EQ(decode_message(late->frames[0]).text, "one");
  EXPECT_EQ(decode_message(late->frames[1]).text, "two");

  execution.broadcast(make_log_frame("three"));
  EXPECT_EQ(late->frames.size(), 3u);

  execution.finish(make_error_frame("done"));
  EXPECT_TRUE(execution.finished());
  EXPECT_EQ(late->frames.size(), 4u);

  // Attaching after the finish replays history + terminal immediately.
  const auto after = std::make_shared<RecordingSink>();
  execution.attach(after);
  ASSERT_EQ(after->frames.size(), 4u);
  EXPECT_EQ(after->frames.back().type, MsgType::kError);
  EXPECT_EQ(execution.num_sinks(), 0u); // finished runs keep no sinks
}

TEST(ExecutionTest, DeadSinksAreDroppedNotFatal) {
  Execution execution(0x99, small_request());
  const auto dead = std::make_shared<RecordingSink>();
  const auto live = std::make_shared<RecordingSink>();
  execution.attach(dead);
  execution.attach(live);
  dead->alive = false; // the client vanished
  execution.broadcast(make_log_frame("tick"));
  EXPECT_EQ(execution.num_sinks(), 1u);
  EXPECT_EQ(live->frames.size(), 1u);
}

// --- the real service over real sockets ------------------------------------

struct Drained {
  std::vector<std::string> logs;
  std::vector<pipeline::StageStats> stage_ends;
  std::vector<std::uint8_t> result_bytes;
  std::string error;
};

Drained drain(ServeClient& client) {
  Drained out;
  while (true) {
    auto message = client.next();
    if (!message.has_value()) {
      out.error = "daemon vanished";
      return out;
    }
    switch (message->type) {
      case MsgType::kLog: out.logs.push_back(message->text); break;
      case MsgType::kStageEnd: out.stage_ends.push_back(message->stats); break;
      case MsgType::kResult:
        out.result_bytes = std::move(message->result_bytes);
        return out;
      case MsgType::kError:
        out.error = message->text;
        return out;
      default: break;
    }
  }
}

double counter(const pipeline::StageStats& s, const char* name) {
  for (const auto& [key, value] : s.counters) {
    if (key == name) return value;
  }
  return -1.0;
}

const pipeline::StageStats* find_stage(const Drained& d, const char* name) {
  for (const auto& s : d.stage_ends) {
    if (s.stage == name) return &s;
  }
  return nullptr;
}

std::string socket_path(const TempDir& dir) {
  // Unix socket paths are length-limited (~108 bytes); temp dirs are short
  // enough, but keep the leaf terse anyway.
  return (dir.path / "d.sock").string();
}

/// The same request executed in-process — the byte-identity oracle every
/// service-path result is compared against.
std::vector<std::uint8_t> reference_bytes(
    const pipeline::CampaignRequest& request) {
  TempDir cache("ripple_serve_ref");
  pipeline::PipelineConfig config;
  config.cache_dir = cache.path;
  config.threads = 2;
  pipeline::CampaignPipeline pipe(config);
  ByteWriter w;
  pipeline::write_campaign_result(w, pipe.run(request));
  return w.take();
}

TEST(ServeTest, ConcurrentClientsShareOneExecutionByteIdentical) {
  TempDir dir("ripple_serve_dedup");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  const pipeline::CampaignRequest request = small_request();

  // A submits first; B submits the identical request while A's execution is
  // still building its core (seconds away from the result), so the daemon
  // must attach B to A's run.
  ServeClient a = ServeClient::connect(config.socket_path);
  const auto a_accepted = a.submit(request);
  EXPECT_FALSE(a_accepted.attached);

  ServeClient b = ServeClient::connect(config.socket_path);
  const auto b_accepted = b.submit(request);
  EXPECT_EQ(b_accepted.checksum, a_accepted.checksum);
  EXPECT_TRUE(b_accepted.attached);

  const Drained from_a = drain(a);
  const Drained from_b = drain(b);
  ASSERT_TRUE(from_a.error.empty()) << from_a.error;
  ASSERT_TRUE(from_b.error.empty()) << from_b.error;
  ASSERT_FALSE(from_a.result_bytes.empty());

  // One execution, two submissions, byte-identical results for both — and
  // identical to an in-process run of the same request.
  EXPECT_EQ(from_a.result_bytes, from_b.result_bytes);
  EXPECT_EQ(from_a.result_bytes, reference_bytes(request));

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.submissions, 2u);
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.executions, 1u);
  server.stop();
}

TEST(ServeTest, ClientDisconnectMidCampaignIsHarmless) {
  TempDir dir("ripple_serve_drop");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  const pipeline::CampaignRequest request = small_request(11);

  {
    // Submit, then vanish without reading a single event — the daemon must
    // drop the dead sink and keep the execution alive.
    ServeClient dropper = ServeClient::connect(config.socket_path);
    (void)dropper.submit(request);
  }

  // A second client attaches to (or restarts) the same campaign and still
  // gets the full, correct result.
  ServeClient patient = ServeClient::connect(config.socket_path);
  (void)patient.submit(request);
  const Drained drained = drain(patient);
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  EXPECT_EQ(drained.result_bytes, reference_bytes(request));
  server.stop();
}

TEST(ServeTest, RestartedDaemonResumesFromShardCheckpoints) {
  TempDir dir("ripple_serve_restart");
  const std::filesystem::path cache_dir = dir.path / "cache";
  const pipeline::CampaignRequest request = small_request(13);

  std::vector<std::uint8_t> first_bytes;
  {
    ServerConfig config;
    config.socket_path = socket_path(dir);
    config.cache_dir = cache_dir;
    config.threads = 2;
    Server server(config);
    server.start();

    ServeClient client = ServeClient::connect(config.socket_path);
    (void)client.submit(request);
    const Drained drained = drain(client);
    ASSERT_TRUE(drained.error.empty()) << drained.error;
    first_bytes = drained.result_bytes;

    const pipeline::StageStats* campaign = find_stage(drained, "campaign");
    ASSERT_NE(campaign, nullptr);
    EXPECT_EQ(counter(*campaign, "shards_resumed"), 0.0);
    EXPECT_EQ(counter(*campaign, "shards"), 4.0);
    server.stop(); // the daemon dies; its shard checkpoints stay in the cache
  }

  // A fresh daemon over the same cache serves the identical request by
  // replaying every checkpointed shard instead of re-executing it — the
  // restart-resume contract (the daemon forces resume on server-side).
  {
    ServerConfig config;
    config.socket_path = socket_path(dir);
    config.cache_dir = cache_dir;
    config.threads = 2;
    Server server(config);
    server.start();

    ServeClient client = ServeClient::connect(config.socket_path);
    (void)client.submit(request);
    const Drained drained = drain(client);
    ASSERT_TRUE(drained.error.empty()) << drained.error;
    EXPECT_EQ(drained.result_bytes, first_bytes);

    const pipeline::StageStats* campaign = find_stage(drained, "campaign");
    ASSERT_NE(campaign, nullptr);
    EXPECT_EQ(counter(*campaign, "shards"), 4.0);
    EXPECT_EQ(counter(*campaign, "shards_resumed"), 4.0);
    server.stop();
  }
}

TEST(ServeTest, CoreWithoutBatchFactoryAnswersWithAnErrorFrame) {
  // Every campaign runs on the 64-lane engine, so a core registered without
  // a batch DUT factory is refused by name — and the daemon keeps serving
  // well-formed requests afterwards.
  pipeline::CoreRegistry::global().register_core(
      "avr-no-batch", [](std::string_view workload) {
        pipeline::CoreRuntime rt =
            pipeline::CoreRegistry::global().make("avr", workload);
        rt.batch_factory = nullptr;
        return rt;
      });

  TempDir dir("ripple_serve_nobatch");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  pipeline::CampaignRequest broken = small_request(17);
  broken.core = "avr-no-batch";
  ServeClient client = ServeClient::connect(config.socket_path);
  (void)client.submit(broken);
  const Drained refused = drain(client);
  EXPECT_TRUE(refused.result_bytes.empty());
  EXPECT_NE(refused.error.find("avr-no-batch"), std::string::npos)
      << refused.error;

  const pipeline::CampaignRequest request = small_request(17);
  ServeClient again = ServeClient::connect(config.socket_path);
  (void)again.submit(request);
  const Drained served = drain(again);
  ASSERT_TRUE(served.error.empty()) << served.error;
  EXPECT_EQ(served.result_bytes, reference_bytes(request));
  server.stop();
}

TEST(FairSchedulerTest, StatsReportIdleAndLoadedPool) {
  FairScheduler scheduler(2);
  const auto idle = scheduler.stats();
  EXPECT_EQ(idle.threads, 2u);
  EXPECT_EQ(idle.streams, 0u);
  EXPECT_EQ(idle.queued, 0u);

  // Hold the workers hostage so the stream's tail stays visibly queued.
  std::mutex gate;
  gate.lock();
  std::thread caller([&] {
    scheduler.run(8, [&](std::size_t) {
      std::lock_guard hold(gate); // all 8 block until the gate opens
    });
  });
  // Wait until the stream registered and the snapshot shows backlog.
  FairScheduler::Stats loaded;
  for (int i = 0; i < 2000; ++i) {
    loaded = scheduler.stats();
    if (loaded.streams == 1 && loaded.queued > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(loaded.streams, 1u);
  EXPECT_GT(loaded.queued, 0u);
  gate.unlock();
  caller.join();
  const auto after = scheduler.stats();
  EXPECT_EQ(after.streams, 0u);
  EXPECT_EQ(after.queued, 0u);
}

TEST(ProtocolTest, ServiceStatsRoundTripsThroughAStatsFrame) {
  ServiceStats stats;
  stats.sessions = 3;
  stats.submissions = 2;
  stats.deduped = 1;
  stats.executions = 1;
  stats.in_flight = 1;
  stats.scheduler_threads = 8;
  stats.scheduler_streams = 1;
  stats.scheduler_queued = 42;
  stats.cache_enabled = true;
  stats.cache_hits = 10;
  stats.cache_misses = 4;
  stats.cache_stores = 4;
  CampaignStats campaign;
  campaign.checksum = 0xdeadbeefcafef00dull;
  campaign.summary = "avr baseline";
  campaign.shards_done = 2;
  campaign.num_shards = 4;
  campaign.executed = 12;
  campaign.inj_per_sec = 123.5;
  campaign.eta_seconds = 1.25;
  campaign.clients = 2;
  stats.campaigns.push_back(campaign);

  const Frame frame = make_stats_frame(stats);
  EXPECT_EQ(frame.type, MsgType::kStats);
  const Message m = decode_message(frame);
  ASSERT_EQ(m.type, MsgType::kStats);
  const ServiceStats& d = m.service_stats;
  EXPECT_EQ(d.sessions, 3u);
  EXPECT_EQ(d.deduped, 1u);
  EXPECT_EQ(d.scheduler_queued, 42u);
  EXPECT_TRUE(d.cache_enabled);
  ASSERT_EQ(d.campaigns.size(), 1u);
  EXPECT_EQ(d.campaigns[0].checksum, 0xdeadbeefcafef00dull);
  EXPECT_EQ(d.campaigns[0].summary, "avr baseline");
  EXPECT_EQ(d.campaigns[0].num_shards, 4u);
  EXPECT_DOUBLE_EQ(d.campaigns[0].inj_per_sec, 123.5);
  EXPECT_EQ(d.campaigns[0].clients, 2u);
}

TEST(ServeTest, StatsRequestAnswersLiveSnapshotWithoutDisturbingRuns) {
  TempDir dir("ripple_serve_stats");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  // A stats query against an idle daemon.
  {
    ServeClient probe = ServeClient::connect(config.socket_path);
    const ServiceStats idle = probe.stats();
    EXPECT_EQ(idle.submissions, 0u);
    EXPECT_EQ(idle.in_flight, 0u);
    EXPECT_EQ(idle.scheduler_threads, 2u);
    EXPECT_TRUE(idle.cache_enabled);
    EXPECT_TRUE(idle.campaigns.empty());
  }

  const pipeline::CampaignRequest request = small_request(23);
  ServeClient client = ServeClient::connect(config.socket_path);
  const auto accepted = client.submit(request);

  // Poll stats on fresh connections while the campaign runs. Timing is
  // nondeterministic, so assert only what every interleaving guarantees;
  // additionally remember whether we ever caught it mid-flight.
  bool saw_in_flight = false;
  for (int i = 0; i < 50; ++i) {
    ServeClient probe = ServeClient::connect(config.socket_path);
    const ServiceStats live = probe.stats();
    EXPECT_EQ(live.submissions, 1u);
    EXPECT_EQ(live.executions, 1u);
    if (!live.campaigns.empty()) {
      saw_in_flight = true;
      EXPECT_EQ(live.campaigns[0].checksum, accepted.checksum);
      EXPECT_FALSE(live.campaigns[0].summary.empty());
      EXPECT_LE(live.campaigns[0].shards_done, live.campaigns[0].num_shards);
    }
    if (live.in_flight == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_in_flight)
      << "stats never observed the execution in flight";

  // The probed execution still delivers the correct, byte-identical result.
  const Drained drained = drain(client);
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  EXPECT_EQ(drained.result_bytes, reference_bytes(request));

  // After the terminal frame the registry drains.
  ServeClient after = ServeClient::connect(config.socket_path);
  const ServiceStats final_stats = after.stats();
  EXPECT_EQ(final_stats.submissions, 1u);
  EXPECT_GE(final_stats.sessions, 2u);
  server.stop();
}

TEST(ServeTest, UnknownCoreAnswersWithAnErrorFrame) {
  TempDir dir("ripple_serve_err");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  pipeline::CampaignRequest request = small_request(19);
  request.core = "z80";
  ServeClient client = ServeClient::connect(config.socket_path);
  (void)client.submit(request);
  const Drained drained = drain(client);
  EXPECT_TRUE(drained.result_bytes.empty());
  EXPECT_NE(drained.error.find("z80"), std::string::npos);
  server.stop();
}

TEST(ServeTest, FinishedThreadsAreReaped) {
  // Every submission runs a session thread and (unless it attaches to a
  // run still in flight) an executor thread. Joining the finished ones
  // whenever a new one starts keeps the joinable count bounded however
  // many requests a daemon serves; without reaping it grows by two per
  // request. Resubmissions resume every shard from the cache, so the
  // result bytes must not change either.
  constexpr std::size_t kSubmissions = 200;
  constexpr std::size_t kMaxJoinable = 8;

  TempDir dir("ripple_serve_reap");
  ServerConfig config;
  config.socket_path = socket_path(dir);
  config.cache_dir = dir.path / "cache";
  config.threads = 2;
  Server server(config);
  server.start();

  const pipeline::CampaignRequest request = small_request(23);
  std::vector<std::uint8_t> first;
  std::size_t max_joinable = 0;
  for (std::size_t i = 0; i < kSubmissions; ++i) {
    {
      ServeClient client = ServeClient::connect(config.socket_path);
      (void)client.submit(request);
      const Drained drained = drain(client);
      ASSERT_TRUE(drained.error.empty()) << drained.error;
      if (i == 0) first = drained.result_bytes;
      ASSERT_EQ(drained.result_bytes, first) << "submission " << i;
    }
    max_joinable = std::max(max_joinable, server.stats().joinable_threads);
  }
  EXPECT_LE(max_joinable, kMaxJoinable);
  EXPECT_EQ(server.stats().submissions, kSubmissions);
  EXPECT_EQ(first, reference_bytes(request));
  server.stop();
  EXPECT_EQ(server.stats().joinable_threads, 0u);
}

} // namespace
} // namespace ripple::serve
