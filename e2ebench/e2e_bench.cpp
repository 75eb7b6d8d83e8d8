// End-to-end campaign benchmark (see README.md next to this file).
//
// One process drives the system through its public entry points only —
// pipeline::CoreRegistry::make, CampaignPipeline::run / trace_stream /
// evaluate_stream / select_stream, and an in-process serve::Server talked to
// through serve::ServeClient — checks the outputs, and prints one JSON result
// line. A workload alternates cold rounds (every cache empty) with
// closed-loop replay slices against the warm cache of the round before,
// until --seconds have passed, so both kinds of sample are spread over the
// whole run. The work counts of the first rounds repeat exactly for a seed.
//
// The benchmark is meant for shared machines whose speed drifts by tens of
// percent between windows of a few seconds. Its end-to-end timings are
// therefore the fastest tenth (p10) of many samples spread over the run,
// which follows the program rather than its neighbours; the median and p90
// of every sample set go into the record line.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload with an obs::TraceRecorder installed for every other cold round
// and every other replay slice, and reports the per-layer metrics plus the
// tracing overhead (replays in traced vs untraced slices). Nothing inside the
// library is instrumented for this: the benchmark wraps its own "bench"
// spans around its calls and reads the counters the public APIs already
// return.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "hafi/campaign.hpp"
#include "mate/report.hpp"
#include "mate/search.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/observer.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/request.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/hash.hpp"
#include "util/serialize.hpp"
#include "util/stats.hpp"

namespace fs = std::filesystem;
using namespace ripple;
using Clock = std::chrono::steady_clock;

namespace {

// --- workload sizes ---------------------------------------------------------

// campaign_cold: 8064 points auto-size into 64 shards of 126, so every shard
// packs two full 63-lane passes (a lane-refill change has lanes to refill).
constexpr std::size_t kCampaignSample = 8064;
constexpr std::size_t kCampaignCycles = 1000;
constexpr std::size_t kCampaignReplayClients = 2;
constexpr std::uint32_t kTopN = 50;

// stream_eval: the AVR crc workload, streamed in chunks so the trace is
// never resident as a whole. One chain at a time: an overlapped stage runs
// a producer and a consumer thread, so concurrent chains would put more
// threads on the machine than it has processors.
constexpr std::size_t kStreamCycles = 2 * 16 * 1024;
constexpr std::size_t kStreamChunkCycles = 4 * 1024;
constexpr std::size_t kStreamCountRounds = 3;

// serve: every round submits one fresh request per core.
constexpr std::size_t kServeCycles = 1000;
constexpr std::size_t kServeSample = 2000;
constexpr std::size_t kServeClients = 4; // two per request of a round

// The quantile of the end-to-end timings (the fastest tenth); p10 needs at
// least ten samples below it.
constexpr double kFast = 0.1;
constexpr std::size_t kMinReplays = 100;
// Set-up takes milliseconds: it is repeated at least this often and for at
// least this long, and its median reported.
constexpr std::size_t kSetupReps = 31;
constexpr double kSetupMinS = 1.0;
// Share of every iteration (a cold round and its replay slice) given to
// replays. The replays that end the run go in slices this long, so that
// --trace 1 can alternate tracing between them.
constexpr double kReplayShare = 0.3;
constexpr double kFillSliceS = 1.0;

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- small helpers ----------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Hasher h;
  h.update_value(seed);
  h.update_value(a);
  h.update_value(b);
  return h.digest();
}

std::uint64_t digest(std::span<const std::uint8_t> bytes) {
  Hasher h;
  h.update_bytes(bytes);
  return h.digest();
}

std::vector<std::uint8_t> encode(const hafi::CampaignResult& result) {
  ByteWriter w;
  pipeline::write_campaign_result(w, result);
  return w.take();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- command line -----------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  // Scratch space (caches, span timelines), relative to the checkout root.
  fs::path work_dir = ".bench_build/e2ebench/work";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::runtime_error("missing value for " + arg);
    }
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = std::stoi(value) != 0;
    } else if (arg == "--commit") {
      o.commit = value;
    } else {
      throw std::runtime_error("unknown option " + arg);
    }
  }
  if (o.workload != "campaign_cold" && o.workload != "stream_eval" &&
      o.workload != "serve") {
    throw std::runtime_error(
        "--workload must be campaign_cold, stream_eval or serve");
  }
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return o;
}

// --- failure accounting -----------------------------------------------------

/// Ops attempted and failed, shared by every thread of a run. An op is a
/// run() call, a stream stage call or a serve submission; a thrown error, a
/// daemon error frame, a session that ends without a result and a failed
/// output check each count as one failure.
class Ops {
public:
  void attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }

  void fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "e2e_bench: FAILED: %s\n", what.c_str());
  }

  /// A failed output check that is not tied to one op.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    attempt();
    fail("check: " + what);
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::size_t failed() const { return failed_.load(); }

private:
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> failed_{0};
};

// --- stage and progress collection ------------------------------------------

enum class Phase { Setup, Cold, Replay };

/// Stage records and campaign progress ticks, each tagged with the phase and
/// round (set-up repetition, cold round, or the round a replay slice
/// follows) it ran in. Thread-safe: pipeline workers and serve clients
/// report at once.
class Collector final : public pipeline::StageObserver {
public:
  /// Tags what is reported from now on; called while no op is running.
  void set_phase(Phase phase, std::size_t round) {
    phase_.store(phase);
    round_.store(round);
  }

  void stage_end(const pipeline::StageStats& stats) override { add(stats); }
  void campaign_progress(const pipeline::CampaignProgress& p) override {
    std::lock_guard lock(mutex_);
    shards_.emplace_back(phase_.load(), p);
  }

  /// A stage record that reached the benchmark another way (serve frames).
  void add(const pipeline::StageStats& stats) {
    std::lock_guard lock(mutex_);
    stages_.push_back({phase_.load(), round_.load(), stats});
  }

  /// The records of `stage` from `phases`, from rounds below `rounds`.
  [[nodiscard]] std::vector<pipeline::StageStats> stages(
      std::initializer_list<Phase> phases, std::string_view stage,
      std::size_t rounds = std::numeric_limits<std::size_t>::max()) const {
    std::lock_guard lock(mutex_);
    std::vector<pipeline::StageStats> out;
    for (const Record& rec : stages_) {
      if (rec.stats.stage == stage && rec.round < rounds &&
          std::find(phases.begin(), phases.end(), rec.phase) != phases.end()) {
        out.push_back(rec.stats);
      }
    }
    return out;
  }

  /// Wall times of the shards executed (not resumed) in `phase`.
  [[nodiscard]] std::vector<double> executed_shard_seconds(Phase phase) const {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const auto& [p, tick] : shards_) {
      if (p == phase && !tick.resumed) out.push_back(tick.seconds);
    }
    return out;
  }

private:
  struct Record {
    Phase phase;
    std::size_t round;
    pipeline::StageStats stats;
  };
  std::atomic<Phase> phase_{Phase::Setup};
  std::atomic<std::size_t> round_{0};
  mutable std::mutex mutex_;
  std::vector<Record> stages_;
  std::vector<std::pair<Phase, pipeline::CampaignProgress>> shards_;
};

// --- one run of a workload --------------------------------------------------

/// Everything one run of a workload measured.
struct RunResult {
  std::vector<double> setup_s;      // one per set-up repetition
  std::vector<double> build_s;      // one per CoreRegistry::make call
  std::vector<double> round_wall_s; // one per cold round
  std::vector<double> round_points; // fault-space points resolved per round
  /// Mean latency of a cold round's ops. The ops of one round differ in
  /// kind (core, mode), so single op latencies would form several clusters;
  /// their mean has one peak.
  std::vector<double> round_op_s;
  /// Replay op latencies. A replay op bundles the same requests every time,
  /// so the samples have one peak.
  std::vector<double> replay_s;
  double replay_phase_s = 0.0; // summed over the replay slices
  /// --trace 1: replays that ran in a traced / untraced slice.
  std::vector<double> replay_traced_s;
  std::vector<double> replay_untraced_s;
  /// Leading cold rounds (and set-up repetitions) whose work counts are
  /// reported; the run's length does not change them.
  std::size_t count_rounds = 1;
  /// Core builds the system does inside one cold round (run() and
  /// trace_stream() build their core; so does each serve execution).
  double builds_per_round = 0.0;
  /// Request chains a round runs at once; stage seconds are divided by it
  /// to give one chain's share of the round wall.
  double concurrency = 1.0;
  std::size_t gates = 0; // cells of the streamed netlist (stream_eval)
  pipeline::ArtifactCache::Stats cache; // counted rounds
  // serve only
  std::vector<double> accept_s;
  std::vector<double> first_stage_s;
  std::vector<double> attach_lag_s;
  std::size_t executions = 0; // counted rounds
  std::size_t deduped = 0;    // counted rounds
  std::optional<obs::Histogram::Snapshot> shard_hist;
};

void add_cache(pipeline::ArtifactCache::Stats& total,
               const pipeline::ArtifactCache::Stats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.stores += s.stores;
  total.corrupt += s.corrupt;
}

/// With --trace 1, records spans during every other cold round (round 0,
/// which pays first-touch costs, runs untraced) for the per-layer self
/// times, and during every other replay slice for the tracing overhead.
class RoundTracer {
public:
  explicit RoundTracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts a cold round; odd rounds run traced.
  void begin_round(std::size_t round) {
    if (enabled_ && round % 2 == 1) {
      ++traced_rounds_;
      obs::TraceRecorder::install(&rounds_);
    }
  }
  /// Starts a replay slice and says whether it runs traced (odd slices).
  bool begin_slice() {
    const bool traced = enabled_ && slices_++ % 2 == 1;
    if (traced) obs::TraceRecorder::install(&replays_);
    return traced;
  }
  /// Ends a round or slice; call once its threads have been joined.
  void end() { obs::TraceRecorder::install(nullptr); }

  [[nodiscard]] const obs::TraceRecorder& recorder() const { return rounds_; }
  [[nodiscard]] std::size_t traced_rounds() const { return traced_rounds_; }

private:
  bool enabled_;
  obs::TraceRecorder rounds_;
  obs::TraceRecorder replays_;
  std::size_t traced_rounds_ = 0;
  std::size_t slices_ = 0;
};

/// A replay op of `client`: its latency, or nullopt when it failed.
using ReplayOp = std::function<std::optional<double>(std::size_t client)>;

/// One closed-loop replay slice: `clients` threads each call `op` back to
/// back until `seconds` have passed and at least `min_ops` ops finished.
/// Returns the ops finished, failed ones included.
std::size_t closed_loop(RunResult& r, std::size_t clients, double seconds,
                        std::size_t min_ops, bool traced, const ReplayOp& op) {
  std::atomic<std::size_t> finished{0};
  std::mutex mutex;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (seconds_since(t0) < seconds || finished.load() < min_ops) {
        const std::optional<double> latency = op(c);
        finished.fetch_add(1);
        if (!latency) continue;
        std::lock_guard lock(mutex);
        r.replay_s.push_back(*latency);
        (traced ? r.replay_traced_s : r.replay_untraced_s).push_back(*latency);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  r.replay_phase_s += seconds_since(t0);
  return finished.load();
}

/// The timed part of a workload.
struct Timed {
  /// Cold rounds that run back to back before the first replay slice; their
  /// work counts are the reported ones.
  std::size_t count_rounds = 1;
  std::size_t clients = 1; // replay clients
  /// One cold round: records its samples in the RunResult and leaves a warm
  /// cache for the replays that follow.
  std::function<void(std::size_t round)> cold;
  ReplayOp replay;
};

/// Alternates cold rounds with replay slices (kReplayShare of each
/// iteration) until `seconds` have passed, then fills the rest of the run
/// with replays against the last round's cache, until at least kMinReplays
/// ran.
void run_timed(RunResult& r, RoundTracer& tracer, Collector& col,
               double seconds, const Timed& t) {
  r.count_rounds = t.count_rounds;
  std::size_t replays = 0;
  const auto slice = [&](double s, std::size_t min_ops) {
    const bool traced = tracer.begin_slice();
    replays += closed_loop(r, t.clients, s, min_ops, traced, t.replay);
    tracer.end();
  };
  const Clock::time_point t0 = Clock::now();
  double iteration_s = 0.0;
  for (std::size_t round = 0;
       round < t.count_rounds || seconds_since(t0) + iteration_s <= seconds;
       ++round) {
    const Clock::time_point i0 = Clock::now();
    col.set_phase(Phase::Cold, round);
    tracer.begin_round(round);
    t.cold(round);
    tracer.end();
    col.set_phase(Phase::Replay, round);
    if (round + 1 >= t.count_rounds) {
      slice(seconds_since(i0) * kReplayShare / (1.0 - kReplayShare), 0);
    }
    iteration_s = seconds_since(i0);
  }
  while (seconds_since(t0) < seconds || replays < kMinReplays) {
    const double left = seconds - seconds_since(t0);
    slice(std::clamp(left, 0.0, kFillSliceS),
          left > 0.0 ? 0 : kMinReplays - replays);
  }
}

/// Runs `once` at least kSetupReps times and for at least kSetupMinS,
/// recording each wall.
void repeat_setup(RunResult& r, Collector& col,
                  const std::function<void()>& once) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0;
       rep < kSetupReps || seconds_since(t0) < kSetupMinS; ++rep) {
    col.set_phase(Phase::Setup, rep);
    const Clock::time_point t = Clock::now();
    once();
    r.setup_s.push_back(seconds_since(t));
  }
}

/// Runs `make` for each core and records the build times.
void build_cores(RunResult& r, std::initializer_list<const char*> cores,
                 std::string_view workload) {
  for (const char* core : cores) {
    const Clock::time_point t = Clock::now();
    (void)pipeline::CoreRegistry::global().make(core, workload);
    r.build_s.push_back(seconds_since(t));
  }
}

// --- campaign_cold ----------------------------------------------------------

std::vector<pipeline::CampaignRequest> campaign_requests(std::uint64_t seed) {
  std::vector<pipeline::CampaignRequest> out;
  for (const char* core : {"avr", "msp430"}) {
    for (const hafi::CampaignMode mode :
         {hafi::CampaignMode::Baseline, hafi::CampaignMode::Pruned}) {
      pipeline::CampaignRequest r;
      r.core = core;
      r.workload = "fib";
      r.config.run_cycles = kCampaignCycles;
      r.config.sample = kCampaignSample;
      r.config.seed = seed;
      r.config.mode = mode;
      r.top_n = mode == hafi::CampaignMode::Pruned ? kTopN : 0;
      r.resume = true;
      out.push_back(std::move(r));
    }
  }
  return out;
}

std::string campaign_label(const pipeline::CampaignRequest& r) {
  return r.core + " " + std::string(hafi::mode_name(r.config.mode));
}

/// MATE soundness and engine agreement on one seed: every point the Pruned
/// run pruned was Benign in the Baseline run, and every point both executed
/// has the same outcome in both.
void check_pruning(const hafi::CampaignResult& base,
                   const hafi::CampaignResult& pruned, const std::string& core,
                   Ops& ops) {
  ops.check(base.experiments.size() == pruned.experiments.size() &&
                base.total == kCampaignSample && base.pruned == 0 &&
                base.executed == base.total,
            core + ": baseline and pruned campaigns differ in shape");
  if (base.experiments.size() != pruned.experiments.size()) return;
  std::size_t unsound = 0;
  std::size_t disagree = 0;
  for (std::size_t i = 0; i < base.experiments.size(); ++i) {
    const hafi::Experiment& b = base.experiments[i];
    const hafi::Experiment& p = pruned.experiments[i];
    if (!(b.point == p.point)) {
      ++disagree;
    } else if (p.pruned) {
      if (!b.executed || b.outcome != hafi::Outcome::Benign) ++unsound;
    } else if (p.executed && b.executed && p.outcome != b.outcome) {
      ++disagree;
    }
  }
  ops.check(unsound == 0, core + ": " + std::to_string(unsound) +
                              " pruned points were not benign in baseline");
  ops.check(disagree == 0, core + ": " + std::to_string(disagree) +
                               " points differ between baseline and pruned");
}

RunResult run_campaign_cold(const Options& o, RoundTracer& tracer, Ops& ops,
                            const std::shared_ptr<Collector>& col,
                            const fs::path& work) {
  RunResult r;
  repeat_setup(r, *col, [&] { build_cores(r, {"avr", "msp430"}, "fib"); });

  const std::vector<pipeline::CampaignRequest> requests =
      campaign_requests(o.seed);
  r.builds_per_round = static_cast<double>(requests.size());
  std::vector<std::vector<std::uint8_t>> reference(requests.size());
  // The replay clients' pipelines, over the last cold round's cache.
  fs::path warm;
  std::vector<std::unique_ptr<pipeline::CampaignPipeline>> pipes;

  Timed t;
  t.clients = kCampaignReplayClients;
  t.cold = [&](std::size_t round) {
    // Every round starts from an empty cache: all stages compute and store.
    const fs::path dir = work / ("cold" + std::to_string(round));
    fs::create_directories(dir);
    {
      pipeline::PipelineConfig config;
      config.cache_dir = dir;
      config.threads = nproc();
      pipeline::CampaignPipeline pipe(config);
      pipe.add_observer(col);

      const Clock::time_point t0 = Clock::now();
      std::vector<std::optional<hafi::CampaignResult>> results(
          requests.size());
      double points = 0.0;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ops.attempt();
        try {
          obs::Span span("bench", "run", campaign_label(requests[i]));
          results[i] = pipe.run(requests[i], campaign_label(requests[i]));
        } catch (const std::exception& e) {
          ops.fail(campaign_label(requests[i]) + ": " + e.what());
          continue;
        }
        points += static_cast<double>(results[i]->total);
      }
      r.round_wall_s.push_back(seconds_since(t0));
      r.round_op_s.push_back(r.round_wall_s.back() /
                             static_cast<double>(requests.size()));
      r.round_points.push_back(points);
      if (round < r.count_rounds) add_cache(r.cache, pipe.cache().stats());

      for (std::size_t i = 0; i + 1 < requests.size(); i += 2) {
        if (results[i] && results[i + 1]) {
          check_pruning(*results[i], *results[i + 1], requests[i].core, ops);
        }
      }
      for (std::size_t i = 0; i < requests.size(); ++i) {
        if (!results[i]) continue;
        std::vector<std::uint8_t> bytes = encode(*results[i]);
        if (reference[i].empty()) {
          reference[i] = std::move(bytes);
        } else {
          ops.check(bytes == reference[i],
                    campaign_label(requests[i]) +
                        ": result differs across rounds");
        }
      }
    }

    // The replays that follow re-run this round's requests against its warm
    // cache, one pipeline per client over one shared cache.
    pipes.clear();
    if (!warm.empty()) fs::remove_all(warm);
    warm = dir;
    auto cache = std::make_shared<pipeline::ArtifactCache>(warm, true);
    for (std::size_t c = 0; c < kCampaignReplayClients; ++c) {
      pipeline::PipelineConfig config;
      config.cache_dir = warm;
      config.threads =
          std::max<std::size_t>(1, nproc() / kCampaignReplayClients);
      pipes.push_back(
          std::make_unique<pipeline::CampaignPipeline>(config, cache));
    }
  };
  // Every stage hits the cache and every shard resumes from its checkpoint,
  // so a replay costs the core build, the campaign plan and the cache reads.
  // A replay op re-runs all four requests, so every sample is the same
  // bundle.
  t.replay = [&](std::size_t c) -> std::optional<double> {
    double latency = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ops.attempt();
      try {
        const Clock::time_point t0 = Clock::now();
        const hafi::CampaignResult result =
            pipes[c]->run(requests[i], campaign_label(requests[i]));
        latency += seconds_since(t0);
        if (encode(result) != reference[i]) {
          ops.fail(campaign_label(requests[i]) + ": replay result differs");
          return std::nullopt;
        }
      } catch (const std::exception& e) {
        ops.fail(campaign_label(requests[i]) + " replay: " + e.what());
        return std::nullopt;
      }
    }
    return latency;
  };
  run_timed(r, tracer, *col, o.seconds, t);
  return r;
}

// --- stream_eval ------------------------------------------------------------

std::vector<std::uint8_t> encode_stream_outputs(
    const mate::EvalResult& eval, const mate::SelectionResult& sel) {
  ByteWriter w;
  pipeline::write_eval_result(w, eval);
  pipeline::write_selection(w, sel);
  return w.take();
}

RunResult run_stream_eval(const Options& o, RoundTracer& tracer, Ops& ops,
                          const std::shared_ptr<Collector>& col,
                          const fs::path& work) {
  RunResult r;
  // Set-up: the AVR core and its full MATE set, searched without a cache.
  mate::MateSet set;
  std::size_t flops = 0;
  repeat_setup(r, *col, [&] {
    const Clock::time_point t = Clock::now();
    const pipeline::CoreRuntime rt =
        pipeline::CoreRegistry::global().make("avr", "crc");
    r.build_s.push_back(seconds_since(t));
    pipeline::PipelineConfig config;
    config.use_cache = false;
    config.threads = nproc();
    pipeline::CampaignPipeline pipe(config);
    pipe.add_observer(col);
    mate::SearchResult search = pipe.find_mates(
        *rt.netlist, rt.fingerprint, mate::all_flop_wires(*rt.netlist),
        pipe.default_params(), "avr all flops");
    set = std::move(search.set);
    flops = rt.netlist->num_flops();
    r.gates = rt.netlist->num_gates();
  });
  r.builds_per_round = 1.0; // trace_stream builds the core

  // trace_stream -> evaluate_stream -> select_stream. The two stage calls
  // count as ops. Returns the chain's output digest.
  const auto stream_chain = [&](pipeline::CampaignPipeline& pipe)
      -> std::optional<std::uint64_t> {
    ops.attempt();
    std::unique_ptr<pipeline::ChunkedTraceStream> stream;
    mate::EvalResult eval;
    try {
      stream = pipe.trace_stream(pipeline::CoreKind::Avr, "crc",
                                 kStreamCycles);
      obs::Span span("bench", "evaluate_stream");
      eval = pipe.evaluate_stream(set, *stream, stream->fingerprint(),
                                  "avr crc");
    } catch (const std::exception& e) {
      ops.fail(std::string("evaluate_stream: ") + e.what());
      return std::nullopt;
    }
    ops.attempt();
    mate::SelectionResult sel;
    try {
      obs::Span span("bench", "select_stream");
      sel = pipe.select_stream(set, *stream, stream->fingerprint(),
                               "avr crc");
    } catch (const std::exception& e) {
      ops.fail(std::string("select_stream: ") + e.what());
      return std::nullopt;
    }
    ops.check(eval.num_cycles == kStreamCycles &&
                  eval.num_faulty_wires == flops &&
                  eval.fault_space() == flops * kStreamCycles,
              "stream_eval: fault_space is not flops x cycles");
    return digest(encode_stream_outputs(eval, sel));
  };
  // One pipeline thread: the overlapped stages add a producer thread.
  const auto make_config = [](const fs::path& dir) {
    pipeline::PipelineConfig config;
    config.cache_dir = dir;
    config.threads = 1;
    config.trace_chunk_cycles = kStreamChunkCycles;
    return config;
  };

  std::optional<std::uint64_t> reference;
  // The replay clients' pipelines, over the last cold chain's cache. Each
  // client runs a producer and a consumer thread, so half as many clients
  // as processors.
  const std::size_t clients = std::max<std::size_t>(1, nproc() / 2);
  fs::path warm;
  std::vector<std::unique_ptr<pipeline::CampaignPipeline>> pipes;
  std::atomic<std::size_t> next_variant{0};

  Timed t;
  t.count_rounds = kStreamCountRounds;
  t.clients = clients;
  t.cold = [&](std::size_t round) {
    // Every chain starts from an empty cache.
    const fs::path dir = work / ("cold" + std::to_string(round));
    fs::create_directories(dir);
    {
      pipeline::CampaignPipeline pipe(make_config(dir));
      pipe.add_observer(col);
      const Clock::time_point t0 = Clock::now();
      const std::optional<std::uint64_t> out = stream_chain(pipe);
      r.round_wall_s.push_back(seconds_since(t0));
      r.round_op_s.push_back(r.round_wall_s.back());
      r.round_points.push_back(static_cast<double>(flops * kStreamCycles));
      if (round < r.count_rounds) add_cache(r.cache, pipe.cache().stats());
      if (out) {
        if (!reference) reference = *out;
        ops.check(*out == *reference, "stream_eval: output digest differs");
      }
    }
    pipes.clear();
    if (!warm.empty()) fs::remove_all(warm);
    warm = dir;
    auto cache = std::make_shared<pipeline::ArtifactCache>(warm, true);
    for (std::size_t c = 0; c < clients; ++c) {
      pipes.push_back(std::make_unique<pipeline::CampaignPipeline>(
          make_config(warm), cache));
    }
    next_variant.store(0);
  };
  // The clients re-score the recorded trace with MATE sets not evaluated
  // against this cache yet (the full set minus one MATE, a different one
  // every op), the way a user tries another selection. The core is rebuilt
  // and evaluate misses, so it replays every cached chunk through the
  // scoring engine without simulating.
  t.replay = [&](std::size_t c) -> std::optional<double> {
    const std::size_t v = next_variant.fetch_add(1);
    if (v >= set.mates.size()) {
      ops.check(false, "stream_eval: ran out of MATE variants");
      return std::nullopt;
    }
    mate::MateSet variant = set;
    variant.mates.erase(variant.mates.begin() +
                        static_cast<std::ptrdiff_t>(v));
    ops.attempt();
    const Clock::time_point t0 = Clock::now();
    try {
      const auto stream = pipes[c]->trace_stream(pipeline::CoreKind::Avr,
                                                 "crc", kStreamCycles);
      const mate::EvalResult eval = pipes[c]->evaluate_stream(
          variant, *stream, stream->fingerprint(), "avr crc variant");
      const double latency = seconds_since(t0);
      ops.check(eval.fault_space() == flops * kStreamCycles,
                "stream_eval: replay fault_space is not flops x cycles");
      return latency;
    } catch (const std::exception& e) {
      ops.fail(std::string("evaluate_stream replay: ") + e.what());
      return std::nullopt;
    }
  };
  run_timed(r, tracer, *col, o.seconds, t);
  return r;
}

// --- serve ------------------------------------------------------------------

/// One client session: submit, then read events until the terminal frame.
struct ServeOp {
  bool ok = false;
  bool attached = false;
  Clock::time_point start;
  Clock::time_point accepted;
  std::optional<Clock::time_point> first_stage;
  Clock::time_point result;
  std::vector<std::uint8_t> bytes;
  std::vector<pipeline::StageStats> stage_ends;
};

ServeOp submit_once(const std::string& socket,
                    const pipeline::CampaignRequest& request, Ops& ops) {
  ServeOp op;
  ops.attempt();
  op.start = Clock::now();
  try {
    obs::Span span("bench", "submit", request.core);
    serve::ServeClient client = serve::ServeClient::connect(socket);
    op.attached = client.submit(request).attached;
    op.accepted = Clock::now();
    while (true) {
      std::optional<serve::Message> msg = client.next();
      if (!msg) {
        ops.fail("serve: session ended without a result");
        return op;
      }
      if (msg->type == serve::MsgType::kStageEnd) {
        if (!op.first_stage) op.first_stage = Clock::now();
        op.stage_ends.push_back(std::move(msg->stats));
      } else if (msg->type == serve::MsgType::kResult) {
        op.result = Clock::now();
        op.bytes = std::move(msg->result_bytes);
        op.ok = true;
        return op;
      } else if (msg->type == serve::MsgType::kError) {
        ops.fail("serve: daemon error: " + msg->text);
        return op;
      }
    }
  } catch (const std::exception& e) {
    ops.fail(std::string("serve: ") + e.what());
  }
  return op;
}

/// The round's two fresh requests; the seed feeds each campaign's sample.
std::array<pipeline::CampaignRequest, 2> serve_requests(std::uint64_t seed,
                                                        std::size_t round) {
  std::array<pipeline::CampaignRequest, 2> out;
  const std::array<const char*, 2> cores = {"avr", "msp430"};
  for (std::size_t i = 0; i < out.size(); ++i) {
    pipeline::CampaignRequest& r = out[i];
    r.core = cores[i];
    r.workload = "fib";
    r.config.run_cycles = kServeCycles;
    r.config.sample = kServeSample;
    r.config.seed = mix_seed(seed, round, i);
    r.config.mode = hafi::CampaignMode::Pruned;
    r.top_n = kTopN;
  }
  return out;
}

RunResult run_serve(const Options& o, RoundTracer& tracer, Ops& ops,
                    const std::shared_ptr<Collector>& col,
                    const fs::path& work) {
  RunResult r;
  // sun_path holds at most 108 bytes, so the socket gets a short path
  // relative to the working directory instead of one under `work`.
  const std::string socket =
      ".e2e-" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig config;
  config.socket_path = socket;
  config.cache_dir = work / "serve_cache";
  config.threads = nproc();

  std::unique_ptr<serve::Server> server;
  repeat_setup(r, *col, [&] {
    if (server) server->stop();
    server.reset();
    fs::remove_all(config.cache_dir);
    build_cores(r, {"avr", "msp430"}, "fib");
    server = std::make_unique<serve::Server>(config);
    server->start();
    // A stats round trip proves the daemon accepts sessions.
    (void)serve::ServeClient::connect(socket).stats();
  });
  r.concurrency = 2.0;      // a round's two executions run at once
  r.builds_per_round = 2.0; // each execution builds its core

  // Rounds whose two requests both executed, with their Result bytes.
  std::vector<std::array<pipeline::CampaignRequest, 2>> executed;
  std::vector<std::array<std::vector<std::uint8_t>, 2>> reference;
  std::mutex mutex;
  std::vector<std::size_t> next_replay(kServeClients, 0);

  Timed t;
  // Every replay client owns an executed round from its first op on.
  t.count_rounds = kServeClients;
  t.clients = kServeClients;
  t.cold = [&](std::size_t round) {
    const auto requests = serve_requests(o.seed, round);
    const serve::Server::Stats before = server->stats();
    const pipeline::ArtifactCache::Stats cache_before =
        server->cache().stats();
    std::vector<ServeOp> results(kServeClients);
    std::latch go(1);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        go.wait();
        results[c] = submit_once(socket, requests[c / 2], ops);
      });
    }
    const Clock::time_point t0 = Clock::now();
    go.count_down();
    for (std::thread& th : clients) th.join();
    r.round_wall_s.push_back(seconds_since(t0));
    if (round < r.count_rounds) {
      const serve::Server::Stats after = server->stats();
      const pipeline::ArtifactCache::Stats cache_after =
          server->cache().stats();
      r.executions += after.executions - before.executions;
      r.deduped += after.deduped - before.deduped;
      r.cache.hits += cache_after.hits - cache_before.hits;
      r.cache.misses += cache_after.misses - cache_before.misses;
      r.cache.stores += cache_after.stores - cache_before.stores;
      r.cache.corrupt += cache_after.corrupt - cache_before.corrupt;
    }

    double points = 0.0;
    double latency = 0.0;
    std::array<std::vector<std::uint8_t>, 2> bytes;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ServeOp& a = results[2 * i];
      const ServeOp& b = results[2 * i + 1];
      for (const ServeOp* op : {&a, &b}) {
        if (!op->ok) continue;
        latency += seconds_between(op->start, op->result);
        r.accept_s.push_back(seconds_between(op->start, op->accepted));
        if (op->first_stage) {
          r.first_stage_s.push_back(
              seconds_between(op->start, *op->first_stage));
        }
        // The executions' stage records reach the collector through the
        // executing clients' StageEnd frames.
        if (!op->attached) {
          for (const auto& s : op->stage_ends) col->add(s);
        }
      }
      if (!a.ok || !b.ok) continue;
      ops.check(a.attached != b.attached,
                "serve: the paired submission was not deduplicated");
      ops.check(a.bytes == b.bytes,
                "serve: executing and attached clients got different bytes");
      const ServeOp& exec = a.attached ? b : a;
      const ServeOp& attached = a.attached ? a : b;
      r.attach_lag_s.push_back(seconds_between(exec.result, attached.result));
      ByteReader reader(exec.bytes);
      points +=
          static_cast<double>(pipeline::read_campaign_result(reader).total);
      bytes[i] = exec.bytes;
    }
    r.round_points.push_back(points);
    r.round_op_s.push_back(latency / static_cast<double>(kServeClients));
    if (!bytes[0].empty() && !bytes[1].empty()) {
      executed.push_back(requests);
      reference.push_back(std::move(bytes));
    }
  };
  // The clients resubmit rounds already executed, an op being one round's
  // two requests one after the other. Client c owns the rounds q with
  // q % clients == c and replays them in turn, so no two clients submit the
  // same checksum at once and nothing dedups: every replay is an execution
  // whose shards all resume from checkpoints.
  t.replay = [&](std::size_t c) -> std::optional<double> {
    const std::size_t owned =
        (executed.size() + kServeClients - 1 - c) / kServeClients;
    if (owned == 0) {
      ops.check(false, "serve: no executed round to replay");
      return std::nullopt;
    }
    const std::size_t q = c + kServeClients * (next_replay[c]++ % owned);
    double latency = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      const ServeOp op = submit_once(socket, executed[q][i], ops);
      if (!op.ok) return std::nullopt;
      if (op.bytes != reference[q][i]) {
        ops.fail("serve: replayed result differs from the cold result");
        return std::nullopt;
      }
      latency += seconds_between(op.start, op.result);
      for (const auto& s : op.stage_ends) col->add(s);
      std::lock_guard lock(mutex);
      r.accept_s.push_back(seconds_between(op.start, op.accepted));
      if (op.first_stage) {
        r.first_stage_s.push_back(seconds_between(op.start, *op.first_stage));
      }
    }
    return latency;
  };
  run_timed(r, tracer, *col, o.seconds, t);
  server->stop();
  for (const auto& h : obs::MetricRegistry::global().histograms()) {
    if (h.name == "shard_seconds") r.shard_hist = h;
  }
  return r;
}

RunResult run_workload(const Options& o, RoundTracer& tracer, Ops& ops,
                       const std::shared_ptr<Collector>& col,
                       const fs::path& work) {
  fs::create_directories(work);
  if (o.workload == "campaign_cold") {
    return run_campaign_cold(o, tracer, ops, col, work);
  }
  if (o.workload == "stream_eval") {
    return run_stream_eval(o, tracer, ops, col, work);
  }
  return run_serve(o, tracer, ops, col, work);
}

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

Metrics end_to_end(const RunResult& r, const Ops& ops) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < r.round_wall_s.size(); ++i) {
    rates.push_back(ratio(r.round_points[i], r.round_wall_s[i]));
  }
  const double attempted = static_cast<double>(ops.attempted());
  return {
      {"setup_s", median(r.setup_s), "s"},
      {"wall_s", quantile(r.round_wall_s, kFast), "s"},
      {"points_per_s", quantile(rates, 1.0 - kFast), "1/s"},
      {"cold_result_p10_s", quantile(r.round_op_s, kFast), "s"},
      {"replay_p10_ms", 1e3 * quantile(r.replay_s, kFast), "ms"},
      {"peak_rss_mb",
       static_cast<double>(pipeline::peak_rss_bytes()) / (1024.0 * 1024.0),
       "MiB"},
      {"success_rate",
       1.0 - ratio(static_cast<double>(ops.failed()), attempted), "ratio"},
  };
}

/// Exclusive (self) seconds per span category: a span's duration minus the
/// part covered by the spans nested inside it on the same thread.
std::map<std::string, double> self_seconds(
    const std::vector<obs::TraceRecorder::Event>& events) {
  std::map<std::uint32_t, std::vector<const obs::TraceRecorder::Event*>>
      by_thread;
  for (const auto& e : events) by_thread[e.tid].push_back(&e);
  std::map<std::string, double> self;
  struct Open {
    std::uint64_t end;
    std::uint64_t dur;
    std::uint64_t children;
    const char* cat;
  };
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->dur_ns > b->dur_ns;
    });
    std::vector<Open> stack;
    const auto close = [&] {
      const Open& o = stack.back();
      self[o.cat] +=
          static_cast<double>(o.dur - std::min(o.dur, o.children)) * 1e-9;
      stack.pop_back();
    };
    for (const auto* e : list) {
      while (!stack.empty() && e->start_ns >= stack.back().end) close();
      if (!stack.empty()) stack.back().children += e->dur_ns;
      stack.push_back({e->start_ns + e->dur_ns, e->dur_ns, 0, e->cat});
    }
    while (!stack.empty()) close();
  }
  return self;
}

double counter(const pipeline::StageStats& s, std::string_view name) {
  return s.counters.value_or(name, 0.0);
}

Metrics per_layer(const RunResult& r, const Collector& col,
                  const RoundTracer& tracer) {
  Metrics m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const double rounds = static_cast<double>(r.round_wall_s.size());
  const double wall = median(r.round_wall_s);
  const double build = median(r.build_s);
  // Counts come from the leading rounds only, so they repeat exactly.
  const std::size_t counted = r.count_rounds;

  // cores
  add("cores.build_s", build, "s");

  // pipeline: one request chain's share of a cold round, comparable with
  // the round wall
  const double chains = rounds * r.concurrency;
  double staged = 0.0;
  for (const char* stage :
       {"find_mates", "record_trace", "select", "evaluate", "campaign"}) {
    double seconds = 0.0;
    double nested = 0.0; // a streamed record_trace runs inside evaluate/select
    for (const auto& s : col.stages({Phase::Cold}, stage)) {
      seconds += s.seconds;
      if (s.detail.find("(streamed)") != std::string::npos) nested += s.seconds;
    }
    staged += (seconds - nested) / chains;
    add(std::string("pipeline.") + stage + "_s", seconds / chains, "s");
  }
  add("pipeline.unattributed_s",
      wall - staged - r.builds_per_round / r.concurrency * build, "s");
  add("pipeline.cache_hits", static_cast<double>(r.cache.hits), "count");
  add("pipeline.cache_misses", static_cast<double>(r.cache.misses), "count");
  add("pipeline.cache_stores", static_cast<double>(r.cache.stores), "count");

  // mate: computed searches (set-up and cold phase)
  double wires = 0.0;
  double search_s = 0.0;
  for (const auto& s : col.stages({Phase::Setup, Phase::Cold}, "find_mates")) {
    if (s.cache_hit) continue;
    wires += counter(s, "faulty_wires");
    search_s += s.seconds;
  }
  double candidates = 0.0;
  double classes = 0.0;
  for (const auto& s :
       col.stages({Phase::Setup, Phase::Cold}, "find_mates", counted)) {
    if (s.cache_hit) continue;
    candidates += counter(s, "candidates");
    classes += counter(s, "search_dedup_classes");
  }
  add("mate.search_wires_per_s", ratio(wires, search_s), "1/s");
  add("mate.search_candidates", candidates, "count");
  add("mate.search_dedup_classes", classes, "count");
  std::vector<double> mate_rates;
  for (const auto& s : col.stages({Phase::Cold}, "select")) {
    if (!s.cache_hit) mate_rates.push_back(counter(s, "mates_per_sec"));
  }
  add("mate.eval_mate_cycles_per_s", median(mate_rates), "1/s");

  // sim: the cold streaming evaluate records and evaluates its chunks
  std::vector<double> cycle_rates;
  double trace_peak = 0.0;
  for (const char* stage : {"record_trace", "evaluate", "select"}) {
    for (const auto& s : col.stages({Phase::Cold}, stage)) {
      trace_peak = std::max(trace_peak, counter(s, "trace_bytes_peak"));
      if (std::string_view(stage) == "evaluate" && !s.cache_hit) {
        cycle_rates.push_back(counter(s, "cycles_per_sec"));
      }
    }
  }
  const double record_rate = median(cycle_rates);
  add("sim.record_cycles_per_s", record_rate, "1/s");
  add("sim.gate_evals_per_s", record_rate * static_cast<double>(r.gates),
      "1/s");
  add("sim.trace_bytes_peak", trace_peak, "bytes");

  // hafi: rates and times over every cold round, counts over counted ones
  double executed_all = 0.0, slots = 0.0, campaign_s = 0.0, busy = 0.0;
  std::map<std::string, std::array<double, 2>> by_core; // baseline, pruned s
  for (const auto& s : col.stages({Phase::Cold}, "campaign")) {
    const double ex = counter(s, "executed");
    executed_all += ex;
    slots += ratio(ex, counter(s, "lane_utilization"));
    campaign_s += s.seconds;
    busy += s.utilization * s.seconds;
    const std::string core = s.detail.substr(0, s.detail.find(' '));
    const bool is_pruned = s.detail.find("pruned") != std::string::npos;
    by_core[core][is_pruned ? 1 : 0] += s.seconds;
  }
  double executed = 0.0, pruned = 0.0, passes = 0.0, retired = 0.0,
         saved = 0.0;
  for (const auto& s : col.stages({Phase::Cold}, "campaign", counted)) {
    executed += counter(s, "executed");
    pruned += counter(s, "pruned");
    passes += counter(s, "dut_passes");
    retired += counter(s, "lanes_retired_early");
    saved += counter(s, "lane_cycles_saved");
  }
  add("hafi.injections_per_s", ratio(executed_all, campaign_s), "1/s");
  add("hafi.dut_passes", passes, "count");
  add("hafi.executed", executed, "count");
  add("hafi.pruned", pruned, "count");
  add("hafi.lanes_retired_early", retired, "count");
  add("hafi.lane_cycles_saved", saved, "count");
  add("hafi.lane_utilization", ratio(executed_all, slots), "ratio");
  std::vector<double> shard_s = col.executed_shard_seconds(Phase::Cold);
  double shard_p50 = quantile(shard_s, 0.5);
  double shard_p90 = quantile(shard_s, 0.9);
  if (shard_s.empty() && r.shard_hist) {
    // serve: the executions' shards run inside the daemon; their wall times
    // are only visible through the shard_seconds histogram (bucketed).
    shard_p50 = r.shard_hist->quantile(0.5);
    shard_p90 = r.shard_hist->quantile(0.9);
  }
  add("hafi.shard_p50_s", shard_p50, "s");
  add("hafi.shard_p90_s", shard_p90, "s");
  add("hafi.pool_utilization", ratio(busy, campaign_s), "ratio");
  double base_total = 0.0;
  double pruned_total = 0.0;
  for (const char* core : {"avr", "msp430"}) {
    const auto it = by_core.find(core);
    const std::array<double, 2> s =
        it == by_core.end() ? std::array<double, 2>{0.0, 0.0} : it->second;
    if (s[0] > 0.0) {
      base_total += s[0];
      pruned_total += s[1];
    }
    add(std::string("hafi.pruned_time_ratio.") + core, ratio(s[1], s[0]),
        "ratio");
  }
  add("hafi.pruned_time_ratio", ratio(pruned_total, base_total), "ratio");

  // serve
  double resumed = 0.0;
  for (const auto& s : col.stages({Phase::Replay}, "campaign")) {
    resumed += counter(s, "shards_resumed");
  }
  add("serve.accept_p50_ms", 1e3 * median(r.accept_s), "ms");
  add("serve.first_stage_p50_ms", 1e3 * median(r.first_stage_s), "ms");
  add("serve.executions", static_cast<double>(r.executions), "count");
  add("serve.deduped", static_cast<double>(r.deduped), "count");
  add("serve.attach_lag_ms", 1e3 * median(r.attach_lag_s), "ms");
  add("serve.shards_resumed", resumed, "count");
  const bool serve = r.executions > 0; // the other workloads replay in-process
  add("serve.replay_requests_per_s",
      serve ? ratio(2.0 * static_cast<double>(r.replay_s.size()),
                    r.replay_phase_s)
            : 0.0,
      "1/s");

  // obs
  // Replays in traced vs untraced slices of the same run.
  add("obs.trace_overhead_pct",
      100.0 * (ratio(median(r.replay_traced_s), median(r.replay_untraced_s)) -
               1.0),
      "%");
  // Thread-seconds per traced round: a span waiting on workers counts its
  // wait as its own time.
  const std::map<std::string, double> self =
      self_seconds(tracer.recorder().snapshot());
  const double traced_rounds = static_cast<double>(tracer.traced_rounds());
  for (const char* cat : {"pipeline", "stream", "hafi", "pool", "sched"}) {
    const auto it = self.find(cat);
    add(std::string("obs.self_s.") + cat,
        it == self.end() ? 0.0 : ratio(it->second, traced_rounds), "s");
  }
  return m;
}

// --- output -----------------------------------------------------------------

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_json(const Metrics& metrics) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

/// Size and quantiles of every sample set the timings come from.
std::string samples_json(const RunResult& r) {
  const std::array<std::pair<const char*, const std::vector<double>*>, 4>
      sets = {{{"setup_s", &r.setup_s},
               {"round_wall_s", &r.round_wall_s},
               {"round_op_s", &r.round_op_s},
               {"replay_s", &r.replay_s}}};
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::vector<double>& v = *sets[i].second;
    if (i > 0) os << ", ";
    os << '"' << sets[i].first << "\": {\"n\": " << v.size();
    for (const int p : {0, 10, 50, 90}) {
      os << ", \"p" << p << "\": " << json_number(quantile(v, p / 100.0));
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

} // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload "
                 "campaign_cold|stream_eval|serve --seed N --seconds S "
                 "--trace 0|1 [--commit SHA]\n",
                 e.what());
    return 2;
  }

  const fs::path work = o.work_dir / std::to_string(::getpid());
  Ops ops;
  Metrics metrics;
  std::string samples = "{}";
  RoundTracer tracer(o.trace);
  try {
    const auto col = std::make_shared<Collector>();
    const RunResult r = run_workload(o, tracer, ops, col, work);
    samples = samples_json(r);
    if (o.trace) {
      metrics = per_layer(r, *col, tracer);
      std::ofstream trace_out(o.work_dir / ("trace-" + o.workload + ".json"));
      tracer.recorder().write_chrome_json(trace_out);
    } else {
      metrics = end_to_end(r, ops);
    }
  } catch (const std::exception& e) {
    obs::TraceRecorder::install(nullptr);
    ops.attempt();
    ops.fail(e.what());
  }
  std::error_code ec;
  fs::remove_all(work, ec);

  const std::size_t attempted = std::max<std::size_t>(1, ops.attempted());
  const bool correct = ops.failed() == 0 && !metrics.empty();
  // The full record (provenance, sample sets and every metric), then the
  // result line.
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %zu, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"commit\": \"%s\", \"samples\": %s, "
      "\"metrics\": %s}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0, nproc(),
      mate::json_escape(compiler()).c_str(), E2E_BUILD_TYPE,
      mate::json_escape(o.commit).c_str(), samples.c_str(),
      metrics_json(metrics).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, ops.failed(),
      metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
