#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <thread>

#include "mate/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/artifact.hpp"
#include "util/eta.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace ripple::pipeline {
namespace {

// --- cache key derivation (see DESIGN.md, "Pipeline & artifact cache") ----

/// Identity of a workload trace, ChunkedTraceStream::fingerprint(): the
/// trace fingerprint in the evaluate/select keys of every stream.
std::uint64_t trace_key(std::uint64_t netlist_fp, std::string_view workload,
                        std::size_t cycles) {
  Hasher h;
  h.update_value(kArtifactVersion);
  h.update_value(netlist_fp);
  h.update_string(workload);
  h.update_value(static_cast<std::uint64_t>(cycles));
  return h.digest();
}

/// Per-chunk cache key of the streaming trace path. The total cycle count
/// is deliberately absent so a longer run reuses a shorter run's full
/// prefix chunks; `cycles_in_chunk` is included so a shorter run's partial
/// tail chunk can never satisfy a full chunk of a longer run.
std::uint64_t chunk_key(std::uint64_t netlist_fp, std::string_view workload,
                        std::size_t chunk_cycles, std::size_t chunk_index,
                        std::size_t cycles_in_chunk) {
  Hasher h;
  h.update_value(kArtifactVersion);
  h.update_value(netlist_fp);
  h.update_string(workload);
  h.update_value(static_cast<std::uint64_t>(chunk_cycles));
  h.update_value(static_cast<std::uint64_t>(chunk_index));
  h.update_value(static_cast<std::uint64_t>(cycles_in_chunk));
  return h.digest();
}

std::uint64_t search_key(std::uint64_t netlist_fp,
                         std::span<const WireId> faulty,
                         const mate::SearchParams& p) {
  Hasher h;
  h.update_value(kArtifactVersion);
  h.update_value(netlist_fp);
  h.update_value(static_cast<std::uint64_t>(faulty.size()));
  for (WireId wire : faulty) h.update_value(wire.value());
  // Every result-affecting parameter; `threads` is deliberately absent (it
  // changes wall time, never results), so --threads never splits the cache.
  h.update_value(static_cast<std::uint32_t>(p.path_depth));
  h.update_value(static_cast<std::uint32_t>(p.max_terms));
  h.update_value(static_cast<std::uint64_t>(p.max_candidates_per_wire));
  h.update_value(static_cast<std::uint64_t>(p.max_paths_per_wire));
  h.update_value(static_cast<std::uint64_t>(p.max_mates_per_wire));
  return h.digest();
}

/// Key of the evaluate and select stages (the stage kind tells them apart).
std::uint64_t score_key(std::uint64_t set_fp, std::uint64_t trace_fp) {
  Hasher h;
  h.update_value(kArtifactVersion);
  h.update_value(set_fp);
  h.update_value(trace_fp);
  return h.digest();
}

void fill_eval_counters(StageStats& stats, const mate::EvalResult& result) {
  stats.counters = {
      {"fault_space", static_cast<double>(result.fault_space())},
      {"masked_faults", static_cast<double>(result.masked_faults)},
      {"effective_mates", static_cast<double>(result.effective_mates)},
  };
}

/// Hot-path throughput counters for computed (non-cached) evaluate/select
/// stages, so BENCH_*.json can track the engine across PRs: trace cycles
/// replayed per second and MATE-cycle evaluations per second.
void fill_throughput_counters(StageStats& stats, std::size_t cycles,
                              std::size_t mates) {
  if (stats.seconds <= 0.0) return;
  stats.counters.emplace_back(
      "cycles_per_sec", static_cast<double>(cycles) / stats.seconds);
  stats.counters.emplace_back(
      "mates_per_sec",
      static_cast<double>(cycles) * static_cast<double>(mates) /
          stats.seconds);
}

void fill_search_counters(StageStats& stats, const mate::SearchResult& r) {
  stats.counters = {
      {"faulty_wires", static_cast<double>(r.outcomes.size())},
      {"mates", static_cast<double>(r.set.mates.size())},
      {"candidates", static_cast<double>(r.total_candidates)},
      {"unmaskable_wires", static_cast<double>(r.unmaskable_wires)},
      {"search_dedup_classes", static_cast<double>(r.dedup_classes)},
  };
}

/// The CoreRegistry entry and display name of a built-in core.
struct BuiltinCore {
  const char* key;
  const char* name;
};

const BuiltinCore& builtin(CoreKind kind) {
  static constexpr BuiltinCore kBuiltins[] = {{"avr", "AVR"},
                                              {"msp430", "MSP430"}};
  return kBuiltins[static_cast<std::size_t>(kind)]; // in CoreKind order
}

} // namespace

/// StageStats{stage, detail}, the span `span_name` (a string literal —
/// obs::Span keeps the pointer) for the scope's lifetime, the begin
/// notification and a stopwatch. The stage fills `stats`, calls stop() to
/// stamp the seconds (before deriving rates from them) and end() to send
/// the end notification.
class CampaignPipeline::StageScope {
public:
  StageScope(CampaignPipeline& pipeline, const char* span_name,
             std::string stage, std::string detail)
      : pipeline_(&pipeline), span_("pipeline", span_name) {
    stats.stage = std::move(stage);
    stats.detail = std::move(detail);
    if (span_.active()) span_.set_detail(stats.detail);
    pipeline_->notify_begin(stats.stage, stats.detail);
    watch_.restart();
  }

  void stop() { stats.seconds = watch_.seconds(); }
  void end() { pipeline_->notify_end(std::move(stats)); }

  StageStats stats;

private:
  CampaignPipeline* pipeline_;
  obs::Span span_;
  Stopwatch watch_;
};

template <typename T, typename Compute, typename Counters>
T CampaignPipeline::cached_stage(const char* span_name, const CacheKey& key,
                                 std::string detail, T (*read)(ByteReader&),
                                 void (*write)(ByteWriter&, const T&),
                                 Compute&& compute, Counters&& counters) {
  StageScope scope(*this, span_name, key.stage, std::move(detail));
  scope.stats.cacheable = cache_->enabled();
  T result = [&] {
    if (auto payload = cache_->load(key)) {
      ByteReader r(*payload);
      T loaded = read(r);
      r.expect_done();
      scope.stats.cache_hit = true;
      return loaded;
    }
    T computed = compute();
    if (cache_->enabled()) {
      ByteWriter w;
      write(w, computed);
      cache_->store(key, w.bytes());
    }
    return computed;
  }();
  scope.stop();
  counters(scope.stats, result);
  scope.end();
  return result;
}

CampaignPipeline::CampaignPipeline(PipelineConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<ArtifactCache>(config_.cache_dir,
                                             config_.use_cache)) {}

CampaignPipeline::CampaignPipeline(PipelineConfig config,
                                   std::shared_ptr<ArtifactCache> cache)
    : config_(std::move(config)), cache_(std::move(cache)) {
  RIPPLE_CHECK(cache_ != nullptr, "CampaignPipeline: null shared cache");
}

void CampaignPipeline::add_observer(std::shared_ptr<StageObserver> observer) {
  if (observer != nullptr) observers_.push_back(std::move(observer));
}

void CampaignPipeline::remove_observer(
    const std::shared_ptr<StageObserver>& observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

void CampaignPipeline::notify_begin(std::string_view stage,
                                    std::string_view detail) {
  sim::trace_memory::reset_peak();
  for (const auto& o : observers_) o->stage_begin(stage, detail);
}

void CampaignPipeline::notify_end(StageStats stats) {
  // Every stage reports the high-water mark of resident streaming-trace
  // bytes it caused (satellite of the bounded-memory contract: stream_smoke
  // asserts this stays under two chunks). Zero — no owned chunk was
  // resident, e.g. find_mates or a stage over an in-memory trace — is
  // omitted.
  const std::size_t peak = sim::trace_memory::peak();
  if (peak > 0) {
    stats.counters.emplace_back("trace_bytes_peak",
                                static_cast<double>(peak));
  }
  for (const auto& o : observers_) o->stage_end(stats);
}

void CampaignPipeline::notify_campaign_progress(
    const CampaignProgress& progress) {
  for (const auto& o : observers_) o->campaign_progress(progress);
}

void CampaignPipeline::progress(const char* fmt, ...) {
  char buf[1024];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  for (const auto& o : observers_) o->progress(buf);
}

mate::SearchParams CampaignPipeline::apply_threads(
    mate::SearchParams params) const {
  if (config_.threads != 0) params.threads = config_.threads;
  return params;
}

mate::SearchParams CampaignPipeline::default_params() const {
  return apply_threads(mate::SearchParams{});
}

CoreSetup CampaignPipeline::setup(const CoreSetupSpec& spec) {
  const BuiltinCore& core = builtin(spec.kind);
  CoreSetup s;
  s.name = core.name;
  // The traces follow the build_core stage as record_trace stages, inside
  // the scope's "setup" span.
  StageScope scope(*this, "setup", "build_core", s.name);
  const CoreRuntime fib = CoreRegistry::global().make(core.key, "fib");
  const CoreRuntime conv = CoreRegistry::global().make(core.key, "conv");
  s.netlist = *fib.netlist;
  s.fingerprint = fib.fingerprint;
  s.ff = mate::all_flop_wires(s.netlist);
  s.ff_xrf = mate::flop_wires_excluding_prefix(s.netlist, fib.regfile_prefix);
  scope.stop();
  scope.stats.counters = {
      {"wires", static_cast<double>(s.netlist.num_wires())},
      {"gates", static_cast<double>(s.netlist.num_gates())},
      {"flops", static_cast<double>(s.netlist.num_flops())},
  };
  scope.end();

  // Each workload is gathered once from its chunk stream into the
  // wire-major trace the benches score; the stream identity keys their
  // scoring stages.
  const auto read = [&](const CoreRuntime& rt, sim::TransposedTrace& trace) {
    ChunkedTraceStream stream(*this, rt, spec.trace_cycles);
    trace = sim::gather_trace(stream);
    return stream.fingerprint();
  };
  s.fib_trace_fp = read(fib, s.fib_trace);
  s.conv_trace_fp = read(conv, s.conv_trace);
  return s;
}

mate::SearchResult CampaignPipeline::find_mates(
    const CoreSetup& setup, std::span<const WireId> faulty,
    const mate::SearchParams& params, std::string detail) {
  return find_mates(setup.netlist, setup.fingerprint, faulty, params,
                    std::move(detail));
}

mate::SearchResult CampaignPipeline::find_mates(
    const netlist::Netlist& n, std::uint64_t netlist_fingerprint,
    std::span<const WireId> faulty, const mate::SearchParams& params,
    std::string detail) {
  const mate::SearchParams run_params = apply_threads(params);
  return cached_stage(
      "stage:find_mates",
      {"find_mates", search_key(netlist_fingerprint, faulty, run_params)},
      std::move(detail), read_search_result, write_search_result,
      [&] {
        return mate::find_mates(
            n, std::vector<WireId>(faulty.begin(), faulty.end()), run_params);
      },
      [](StageStats& stats, const mate::SearchResult& result) {
        fill_search_counters(stats, result);
        if (stats.cache_hit) return;
        stats.threads = std::max<std::size_t>(result.threads_used, 1);
        if (stats.seconds > 0.0) {
          stats.utilization = std::min(
              1.0, result.busy_seconds /
                       (static_cast<double>(stats.threads) * stats.seconds));
        }
        stats.counters.emplace_back("search_utilization", stats.utilization);
      });
}

ChunkedTraceStream::ChunkedTraceStream(CampaignPipeline& pipeline,
                                       CoreRuntime runtime, std::size_t cycles)
    : pipeline_(&pipeline),
      rt_(std::move(runtime)),
      cycles_(cycles),
      chunk_cycles_(pipeline.config().trace_chunk_cycles),
      fingerprint_(trace_key(rt_.fingerprint, rt_.workload, cycles)) {
  RIPPLE_CHECK(chunk_cycles_ > 0 && chunk_cycles_ % 64 == 0,
               "--trace-chunk-cycles must be a positive multiple of 64, got ",
               chunk_cycles_);
  RIPPLE_CHECK(cycles_ > 0, "empty trace stream");
}

void ChunkedTraceStream::stream(sim::TraceSink& sink) {
  ArtifactCache& cache = pipeline_->cache();
  CampaignPipeline::StageScope scope(
      *pipeline_, "stage:record_trace", "record_trace",
      strprintf("%s, %zu cycles (streamed)", rt_.workload.c_str(), cycles_));
  scope.stats.cacheable = cache.enabled();

  const std::size_t num_chunks = (cycles_ + chunk_cycles_ - 1) / chunk_cycles_;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::unique_ptr<WorkloadRunner> runner; // booted at the first cache miss
  std::size_t sim_pos = 0;                // cycles the runner has advanced

  for (std::size_t ci = 0; ci < num_chunks; ++ci) {
    const std::size_t base = ci * chunk_cycles_;
    const std::size_t len = std::min(chunk_cycles_, cycles_ - base);
    const CacheKey key{
        "trace_chunk",
        chunk_key(rt_.fingerprint, rt_.workload, chunk_cycles_, ci, len)};

    obs::Span chunk_span("stream", "chunk");
    if (auto payload = cache.load(key)) {
      ByteReader r(*payload);
      sim::TransposedTrace t = read_transposed_trace(r);
      r.expect_done();
      RIPPLE_CHECK(t.num_wires() == num_wires() && t.num_cycles() == len,
                   "cached trace chunk has the wrong shape");
      ++hits;
      if (chunk_span.active()) {
        chunk_span.set_detail(strprintf("chunk %zu (hit)", ci));
      }
      sink.on_chunk(sim::make_owned_chunk(ci, base, std::move(t)));
      continue;
    }

    ++misses;
    if (chunk_span.active()) {
      chunk_span.set_detail(strprintf("chunk %zu (sim)", ci));
    }
    if (!runner) runner = rt_.boot();
    if (sim_pos < base) {
      // Fast-forward (untraced) across the cached span to this miss.
      runner->run(base - sim_pos);
      sim_pos = base;
    }
    struct CollectSink final : sim::TraceSink {
      sim::TraceChunk chunk;
      void on_chunk(sim::TraceChunk c) override { chunk = std::move(c); }
    } collect;
    sim::ChunkedTraceRecorder recorder(num_wires(), base + len, chunk_cycles_,
                                       collect, base);
    runner->run_stream(len, recorder);
    recorder.finish();
    sim_pos += len;
    RIPPLE_CHECK(collect.chunk.owned != nullptr,
                 "chunk recorder emitted nothing");
    if (cache.enabled()) {
      ByteWriter w;
      write_transposed_trace(w, *collect.chunk.owned);
      cache.store(key, w.bytes());
    }
    sink.on_chunk(std::move(collect.chunk));
  }

  scope.stop();
  scope.stats.cache_hit = cache.enabled() && misses == 0;
  scope.stats.counters = {
      {"cycles", static_cast<double>(cycles_)},
      {"wires", static_cast<double>(num_wires())},
      {"chunks", static_cast<double>(num_chunks)},
      {"chunk_hits", static_cast<double>(hits)},
      {"chunk_misses", static_cast<double>(misses)},
  };
  scope.end();
}

std::unique_ptr<ChunkedTraceStream> CampaignPipeline::trace_stream(
    CoreKind kind, std::string_view workload, std::size_t cycles) {
  return std::make_unique<ChunkedTraceStream>(
      *this, CoreRegistry::global().make(builtin(kind).key, workload), cycles);
}

mate::EvalResult CampaignPipeline::evaluate_stream(
    const mate::MateSet& set, sim::TraceSource& source,
    std::uint64_t stream_fingerprint, std::string detail) {
  return cached_stage(
      "stage:evaluate",
      {"evaluate", score_key(fingerprint(set), stream_fingerprint)},
      std::move(detail), read_eval_result, write_eval_result,
      [&] {
        return mate::evaluate_mates_stream(set, source, config_.threads,
                                           /*overlap=*/true);
      },
      [&](StageStats& stats, const mate::EvalResult& result) {
        fill_eval_counters(stats, result);
        if (!stats.cache_hit) {
          fill_throughput_counters(stats, result.num_cycles,
                                   set.mates.size());
        }
      });
}

mate::SelectionResult CampaignPipeline::select_stream(
    const mate::MateSet& set, sim::TraceSource& source,
    std::uint64_t stream_fingerprint, std::string detail) {
  return cached_stage(
      "stage:select",
      {"select", score_key(fingerprint(set), stream_fingerprint)},
      std::move(detail), read_selection, write_selection,
      [&] {
        return mate::rank_mates_stream(set, source, config_.threads,
                                       /*overlap=*/true);
      },
      [&](StageStats& stats, const mate::SelectionResult& result) {
        stats.counters = {
            {"ranked", static_cast<double>(result.ranking.size())}};
        if (!stats.cache_hit) {
          fill_throughput_counters(stats, source.num_cycles(),
                                   set.mates.size());
        }
      });
}

hafi::CampaignResult CampaignPipeline::campaign(CampaignSpec spec,
                                               std::string detail) {
  // The pipeline's --threads applies when the spec leaves the campaign
  // thread count at "hardware concurrency" (0). Never part of any key.
  if (spec.config.threads == 0) spec.config.threads = config_.threads;

  StageScope scope(*this, "stage:campaign", "campaign", std::move(detail));
  // The golden run is the workload's chunk stream: the confinement labels
  // and the MATEs are read off it, only if a shard executes.
  const bool pruning = spec.config.mode != hafi::CampaignMode::Baseline;
  ChunkedTraceStream golden(*this, spec.runtime, spec.config.run_cycles);
  hafi::Campaign campaign(spec.runtime.target(), spec.config, &golden,
                          spec.mates);

  const bool checkpoint = spec.resume && cache_->enabled();
  const std::uint64_t mates_fp = pruning ? fingerprint(*spec.mates) : 0;
  const auto shard_cache_key = [&](std::size_t shard) {
    Hasher h;
    h.update_value(kArtifactVersion);
    h.update_value(spec.runtime.fingerprint);
    h.update_value(static_cast<std::uint64_t>(spec.config.run_cycles));
    h.update_value(static_cast<std::uint64_t>(spec.config.sample));
    h.update_value(spec.config.seed);
    h.update_value(static_cast<std::uint8_t>(spec.config.mode));
    h.update_value(mates_fp);
    // The *resolved* shard size: boundaries must match across runs for a
    // shard artifact to be reusable. threads is deliberately absent.
    h.update_value(static_cast<std::uint64_t>(campaign.plan().shard_size));
    h.update_value(static_cast<std::uint64_t>(shard));
    return CacheKey{"campaign_shard", h.digest()};
  };

  // Per-shard throughput/ETA narration plus the counters that end up in
  // --report=json. Executed shards' shares of their windows' pass time feed
  // the ETA; resumed shards (zero cost) deliberately do not.
  EtaTracker eta;
  std::size_t lane_executions = 0;
  std::size_t confined = 0;
  std::size_t shards_resumed = 0;
  double busy_seconds = 0.0;
  std::size_t dut_passes = 0;
  std::uint64_t pass_cycles = 0;
  std::size_t lane_slots = 0;
  std::size_t lanes_retired_early = 0;
  std::uint64_t lane_cycles_saved = 0;
  hafi::LaneCycles lane_cycles;

  hafi::Campaign::ShardHooks hooks;
  if (checkpoint) {
    hooks.load = [&](std::size_t shard) -> std::optional<hafi::ShardResult> {
      auto payload = cache_->load(shard_cache_key(shard));
      if (!payload) return std::nullopt;
      ByteReader r(*payload);
      hafi::ShardResult result = read_shard_result(r);
      r.expect_done();
      return result;
    };
    hooks.store = [&](const hafi::ShardResult& shard) {
      ByteWriter w;
      write_shard_result(w, shard);
      cache_->store(shard_cache_key(shard.shard), w.bytes());
    };
  }
  // Executed shards' times feed the shard_seconds histogram (report v2)
  // alongside the per-window lane-utilization distribution (recorded on the
  // shard that carries its window's passes); resolved once so the per-shard
  // hot path is two relaxed atomic adds per record.
  constexpr double kShardSecondsBounds[] = {0.001, 0.003, 0.01, 0.03, 0.1,
                                            0.3,   1.0,   3.0,  10.0, 30.0,
                                            100.0};
  constexpr double kRatioBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                     0.6, 0.7, 0.8, 0.9, 1.0};
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  obs::Histogram& shard_seconds_hist =
      registry.histogram("shard_seconds", kShardSecondsBounds);
  obs::Histogram& lane_utilization_hist =
      registry.histogram("lane_utilization", kRatioBounds);

  hooks.progress = [&](const hafi::Campaign::ShardProgress& p) {
    if (p.resumed) {
      ++shards_resumed;
    } else {
      eta.add(p.seconds);
      busy_seconds += p.seconds;
      shard_seconds_hist.record(p.seconds);
      if (p.lane_slots > 0) {
        lane_utilization_hist.record(static_cast<double>(p.lanes) /
                                     static_cast<double>(p.lane_slots));
      }
    }
    lane_executions += p.executed;
    confined += p.confined;
    dut_passes += p.dut_passes;
    pass_cycles += p.pass_cycles;
    lane_slots += p.lane_slots;
    lanes_retired_early += p.lanes_retired_early;
    lane_cycles_saved += p.lane_cycles_saved;
    lane_cycles += p.lane_cycles;

    CampaignProgress cp;
    cp.shard = p.shard;
    cp.shards_done = p.shards_done;
    cp.num_shards = p.num_shards;
    cp.resumed = p.resumed;
    cp.seconds = p.seconds;
    cp.executed = p.executed;
    cp.executed_total = lane_executions;
    if (!p.resumed && p.seconds > 0.0) {
      cp.inj_per_sec = static_cast<double>(p.executed) / p.seconds;
    }
    cp.eta_seconds = eta.eta_seconds(p.num_shards - p.shards_done);
    notify_campaign_progress(cp);
  };
  // The daemon's fair shared scheduler (when configured) replaces the
  // campaign's private ThreadPool; results are identical either way.
  if (config_.shard_executor) hooks.execute = config_.shard_executor;

  hafi::CampaignResult result = campaign.run(hooks);

  scope.stop();
  StageStats& stats = scope.stats;
  stats.threads = spec.config.threads != 0
                      ? spec.config.threads
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  if (stats.seconds > 0.0) {
    stats.utilization = std::min(
        1.0, busy_seconds / (static_cast<double>(stats.threads) *
                             stats.seconds));
  }
  const std::size_t num_shards = campaign.plan().num_shards();
  stats.counters = {
      {"experiments", static_cast<double>(result.total)},
      {"pruned", static_cast<double>(result.pruned)},
      // Every executed experiment of the result: lane executions,
      // label-resolved points and the executed points of resumed shards.
      {"executed", static_cast<double>(result.executed)},
      {"confined", static_cast<double>(confined)},
      {"benign", static_cast<double>(result.benign)},
      {"latent", static_cast<double>(result.latent)},
      {"sdc", static_cast<double>(result.sdc)},
      {"shards", static_cast<double>(num_shards)},
      {"shards_resumed", static_cast<double>(shards_resumed)},
      {"pruned_rate",
       result.total > 0
           ? static_cast<double>(result.pruned) /
                 static_cast<double>(result.total)
           : 0.0},
      {"dut_passes", static_cast<double>(dut_passes)},
      {"pass_cycles", static_cast<double>(pass_cycles)},
      {"lanes_retired_early", static_cast<double>(lanes_retired_early)},
      {"lane_cycles_saved", static_cast<double>(lane_cycles_saved)},
      {"pre_injection_lane_cycles",
       static_cast<double>(lane_cycles.pre_injection)},
      {"live_lane_cycles", static_cast<double>(lane_cycles.live)},
      {"idle_lane_cycles", static_cast<double>(lane_cycles.idle)},
      // Lane executions / experiment capacity of the gate-level passes:
      // 1.0 when every lane of every pass carried an injection.
      {"lane_utilization",
       lane_slots > 0 ? static_cast<double>(lane_executions) /
                            static_cast<double>(lane_slots)
                      : 0.0},
  };
  // Lane executions per second of shard time — counts injections, not
  // gate-level passes.
  if (eta.total_seconds() > 0.0) {
    stats.counters.emplace_back(
        "injections_per_sec",
        static_cast<double>(lane_executions) / eta.total_seconds());
  }
  scope.end();
  return result;
}

hafi::CampaignResult CampaignPipeline::run(const CampaignRequest& request,
                                           std::string detail) {
  CampaignSpec spec{
      .runtime = CoreRegistry::global().make(request.core, request.workload),
      .config = request.config,
      .resume = request.resume};
  const CoreRuntime& rt = spec.runtime;
  if (detail.empty()) detail = request_summary(request);

  // Pruned/Validate: derive the MATE set. `mates` owns the storage the spec
  // borrows; it must outlive the campaign() call below.
  mate::MateSet mates;
  if (request.config.mode != hafi::CampaignMode::Baseline) {
    mate::SearchParams params = default_params();
    if (request.search_depth != 0) params.path_depth = request.search_depth;
    mate::SearchResult search = find_mates(
        *rt.netlist, rt.fingerprint, mate::all_flop_wires(*rt.netlist),
        params, request.core + " all flops");
    if (request.top_n > 0) {
      // Ranked on the workload's chunk stream; over run_cycles (the
      // default) its chunks are the campaign's golden run too.
      const std::size_t cycles =
          request.select_cycles != 0
              ? static_cast<std::size_t>(request.select_cycles)
              : request.config.run_cycles;
      ChunkedTraceStream trace(*this, rt, cycles);
      const mate::SelectionResult sel = select_stream(
          search.set, trace, trace.fingerprint(),
          strprintf("%s %s, %zu cycles", request.core.c_str(),
                    rt.workload.c_str(), cycles));
      mates = mate::top_n(search.set, sel, request.top_n);
    } else {
      mates = std::move(search.set);
    }
    spec.mates = &mates;
  }
  return campaign(std::move(spec), std::move(detail));
}

} // namespace ripple::pipeline
