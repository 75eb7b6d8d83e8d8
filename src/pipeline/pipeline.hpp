// The unified campaign pipeline (tying Sections 3-6 together).
//
// Models the paper's cross-layer flow as named stages over typed artifacts:
//
//   build_core ──> record_trace ──┬──────────────────────────┐ golden run
//        │                        ├──> evaluate ──> select ──┴──> campaign
//        └───────> find_mates ────┘
//
// Stage inputs/outputs are the artifact types of artifact.hpp; cacheable
// stages (record_trace per chunk, find_mates, evaluate, select) consult the
// content-addressed ArtifactCache so a second run with the same inputs
// replays stored results instead of recomputing them. record_trace is one
// path: every trace — the campaign's golden run, run()'s selection trace and
// setup()'s workload traces — is a ChunkedTraceStream, and the stages score
// traces only through sim::TraceSource. Every stage reports begin/end plus a
// StageStats record to the registered StageObservers, which is where all
// bench progress output and the `--report=json` emitter hang off.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hafi/campaign.hpp"
#include "mate/eval.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "netlist/netlist.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/observer.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/request.hpp"
#include "sim/stream.hpp"
#include "sim/transposed.hpp"

namespace ripple {
class ByteReader;
class ByteWriter;
} // namespace ripple

namespace ripple::pipeline {

/// The paper's trace length (Tables 2 and 3: "Both programs ran for 8500
/// clock cycles").
inline constexpr std::size_t kDefaultTraceCycles = 8500;

/// The paper's two cores: names for the built-in CoreRegistry entries
/// "avr" and "msp430".
enum class CoreKind { Avr = 0, Msp430 = 1 };

/// Everything that determines a core setup.
struct CoreSetupSpec {
  CoreKind kind = CoreKind::Avr;
  std::size_t trace_cycles = kDefaultTraceCycles;
};

/// Output of the build_core + record_trace stages: the core netlist, its
/// content fingerprint, the two workload traces (each gathered once from its
/// chunk stream, wire-major) and the evaluation's two fault sets ("FF" and
/// "FF w/o RF"). Callers score a trace by wrapping it in a
/// sim::TransposedTraceSource, keyed by its `*_trace_fp`.
struct CoreSetup {
  std::string name; // "AVR" or "MSP430"
  netlist::Netlist netlist;
  std::uint64_t fingerprint = 0; // content fingerprint of `netlist`
  sim::TransposedTrace fib_trace;
  sim::TransposedTrace conv_trace;
  std::uint64_t fib_trace_fp = 0;  // stream fingerprint of `fib_trace`
  std::uint64_t conv_trace_fp = 0; // stream fingerprint of `conv_trace`
  std::vector<WireId> ff;     // all flipflops
  std::vector<WireId> ff_xrf; // flipflops outside the register file
};

struct PipelineConfig {
  /// Artifact cache directory; empty disables caching.
  std::filesystem::path cache_dir;
  bool use_cache = true; // `--no-cache` clears this
  /// Worker threads for the MATE search and the evaluate/select
  /// accumulators; 0 = hardware concurrency. Never part of a cache key.
  std::size_t threads = 0;
  /// Chunk length of the streaming trace path (`--trace-chunk-cycles`);
  /// must be a positive multiple of 64.
  std::size_t trace_chunk_cycles = sim::kDefaultChunkCycles;
  /// Shard fan-out executor for the campaign stage; empty = a private
  /// ThreadPool per campaign. The rippled daemon injects its fair shared
  /// scheduler here so concurrent executions multiplex one pool. Runtime
  /// state, never part of any cache key.
  hafi::ShardExecutor shard_executor;
};

class CampaignPipeline;

/// Fault-injection campaign stage input. The merged campaign result is
/// never cached — the campaign *is* the experiment (and its DUT factory
/// captures arbitrary state) — but finished *shards* are persisted as
/// versioned artifacts when `resume` is set, keyed by (netlist
/// fingerprint, campaign config, MATE-set fingerprint, shard index), so a
/// killed campaign picks up from its last finished shard.
///
/// This is the in-process form: it carries a live core runtime and a
/// borrowed MATE set. The serializable, wire-friendly form is
/// CampaignRequest (request.hpp), which CampaignPipeline::run() lowers onto
/// this struct via the CoreRegistry.
struct CampaignSpec {
  /// The core and workload injected into (normally from the CoreRegistry).
  /// Every campaign reads its golden run from the workload's cached chunk
  /// stream; its fingerprint keys the shard checkpoints.
  CoreRuntime runtime;
  hafi::CampaignConfig config;
  /// Required for Pruned/Validate; ignored for Baseline.
  const mate::MateSet* mates = nullptr;
  /// Persist finished shards to the artifact cache and skip shards already
  /// present (interrupt/resume). Requires the cache.
  bool resume = false;
};

/// A workload trace streamed in fixed-size transposed chunks, each cached
/// individually by (netlist fingerprint, workload, chunk_cycles, chunk
/// index, cycles in chunk) — the total cycle count is deliberately absent,
/// so extending a run's tail replays the cached prefix chunks and only
/// simulates the new trailing ones. Each stream() pass boots the workload
/// lazily: cached chunks are emitted without simulation, and the simulator
/// fast-forwards (untraced) across cached spans to reach the first miss.
/// Replayable, so rank_mates_stream's two passes work; a second pass hits
/// the chunks the first one stored (or re-simulates when caching is off).
class ChunkedTraceStream final : public sim::TraceSource {
public:
  /// Streams `cycles` cycles of `runtime`'s workload, booted through
  /// CoreRuntime::boot, in chunks of the pipeline's trace_chunk_cycles.
  ChunkedTraceStream(CampaignPipeline& pipeline, CoreRuntime runtime,
                     std::size_t cycles);

  [[nodiscard]] std::size_t num_wires() const override {
    return rt_.netlist->num_wires();
  }
  [[nodiscard]] std::size_t num_cycles() const override { return cycles_; }
  [[nodiscard]] std::size_t chunk_cycles() const override {
    return chunk_cycles_;
  }
  void stream(sim::TraceSink& sink) override;

  /// Identity fingerprint of the stream — (netlist fingerprint, workload,
  /// cycles). Downstream evaluate/select stages use it as the trace
  /// fingerprint in their cache keys.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

private:
  CampaignPipeline* pipeline_;
  CoreRuntime rt_;
  std::size_t cycles_;
  std::size_t chunk_cycles_;
  std::uint64_t fingerprint_;
};

class CampaignPipeline {
public:
  explicit CampaignPipeline(PipelineConfig config = {});

  /// Share an existing artifact cache between pipelines (the rippled daemon
  /// gives every concurrent execution its own pipeline over one cache;
  /// ArtifactCache is thread-safe). `cache` must be non-null.
  CampaignPipeline(PipelineConfig config, std::shared_ptr<ArtifactCache> cache);

  /// Register an observer; shared ownership keeps it alive for the
  /// pipeline's lifetime (no more dangling raw pointers when a bench's
  /// observer goes out of scope first).
  void add_observer(std::shared_ptr<StageObserver> observer);
  /// Unregister a previously added observer (no-op when absent).
  void remove_observer(const std::shared_ptr<StageObserver>& observer);

  /// build_core + record_trace (fib and conv) for the built-in core, both
  /// resolved through the CoreRegistry. Each trace is read once from its
  /// ChunkedTraceStream (chunks cached like every stream's); the netlist
  /// build itself is fast and always runs (it also provides the
  /// fingerprint).
  [[nodiscard]] CoreSetup setup(const CoreSetupSpec& spec);

  /// MATE search stage, cached by (netlist fingerprint, fault set, search
  /// params). `params.threads` is excluded from the key — the thread count
  /// changes wall time, never results.
  [[nodiscard]] mate::SearchResult find_mates(const CoreSetup& setup,
                                              std::span<const WireId> faulty,
                                              const mate::SearchParams& params,
                                              std::string detail = {});

  /// Same, for netlists that did not come from setup() (e.g. the Figure 1
  /// example circuit). `netlist_fingerprint` must be fingerprint(n).
  [[nodiscard]] mate::SearchResult find_mates(const netlist::Netlist& n,
                                              std::uint64_t netlist_fingerprint,
                                              std::span<const WireId> faulty,
                                              const mate::SearchParams& params,
                                              std::string detail = {});

  /// The record_trace stage: a replayable chunk stream over `workload`
  /// (any name from the cores' workload registries, e.g. "fib", "conv",
  /// "sort", "crc", "irq") on the given core, resolved through the
  /// CoreRegistry. Nothing is simulated until the stream is consumed;
  /// chunks are cached individually (stage "record_trace", kind
  /// "trace_chunk"), so only chunks missing from the cache re-simulate.
  /// Bounded memory for million-cycle traces — the whole trace is never
  /// resident.
  [[nodiscard]] std::unique_ptr<ChunkedTraceStream> trace_stream(
      CoreKind kind, std::string_view workload, std::size_t cycles);

  /// Trace evaluation (fault-space quantification) and greedy top-N
  /// ranking stages: consume a chunked trace source through the streaming
  /// accumulators with simulation/evaluation overlap, cached by (MATE set
  /// fingerprint, `stream_fingerprint`). For a ChunkedTraceStream that is
  /// its fingerprint(); an in-memory trace scores through a
  /// sim::TransposedTraceSource keyed by, e.g., CoreSetup::fib_trace_fp or
  /// pipeline::fingerprint(trace).
  [[nodiscard]] mate::EvalResult evaluate_stream(const mate::MateSet& set,
                                                 sim::TraceSource& source,
                                                 std::uint64_t stream_fingerprint,
                                                 std::string detail = {});
  [[nodiscard]] mate::SelectionResult select_stream(
      const mate::MateSet& set, sim::TraceSource& source,
      std::uint64_t stream_fingerprint, std::string detail = {});

  /// Run the campaign stage: shard fan-out per CampaignConfig::threads
  /// (0 falls back to the pipeline's --threads), per-shard progress with
  /// injections/sec, pruned-rate and ETA via the observers, and optional
  /// shard checkpointing per `spec.resume`. The golden run is a
  /// ChunkedTraceStream of run_cycles cycles, streamed once when a shard
  /// executes (one record_trace stage) and never when every shard resumes;
  /// that one stream feeds the MATE pruning, the confinement labels and the
  /// snapshots the passes start from. Throws hafi::SoundnessError (with its
  /// per-shard violation report) in Validate mode.
  [[nodiscard]] hafi::CampaignResult campaign(CampaignSpec spec,
                                              std::string detail = {});

  /// Run a full serializable request end-to-end: resolve the core through
  /// the CoreRegistry, derive the MATE set (find_mates, plus the greedy
  /// top-N over the workload's chunk stream when `request.top_n` asks for
  /// it), then run the campaign stage. This is the daemon's entry point — everything
  /// a request needs beyond pure data comes from the registry, and equal
  /// request_checksum()s are guaranteed byte-identical results.
  [[nodiscard]] hafi::CampaignResult run(const CampaignRequest& request,
                                         std::string detail = {});

  /// Free-form narration routed to the observers (bench progress lines;
  /// keeps stdout clean for tables/CSV/JSON).
  void progress(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  [[nodiscard]] ArtifactCache& cache() { return *cache_; }
  [[nodiscard]] const ArtifactCache& cache() const { return *cache_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  /// Default SearchParams with the pipeline's --threads applied.
  [[nodiscard]] mate::SearchParams default_params() const;
  /// Apply the pipeline's --threads override to existing params.
  [[nodiscard]] mate::SearchParams apply_threads(
      mate::SearchParams params) const;

private:
  friend class ChunkedTraceStream;

  /// The frame every stage report shares (defined in pipeline.cpp).
  class StageScope;

  void notify_begin(std::string_view stage, std::string_view detail);
  void notify_end(StageStats stats);
  void notify_campaign_progress(const CampaignProgress& progress);

  /// The one body of every whole-artifact cached stage: a StageScope with
  /// span `span_name` around load → `read` on a hit or `compute` → `write`
  /// → store on a miss, then `counters(stats, result)` (stats.seconds and
  /// stats.cache_hit already set) and the end notification. The stage name
  /// is key.stage.
  template <typename T, typename Compute, typename Counters>
  T cached_stage(const char* span_name, const CacheKey& key,
                 std::string detail, T (*read)(ByteReader&),
                 void (*write)(ByteWriter&, const T&), Compute&& compute,
                 Counters&& counters);

  PipelineConfig config_;
  std::shared_ptr<ArtifactCache> cache_;
  std::vector<std::shared_ptr<StageObserver>> observers_;
};

} // namespace ripple::pipeline
