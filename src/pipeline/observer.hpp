// Per-stage observability for the campaign pipeline.
//
// Every pipeline stage reports begin/end plus a StageStats record (wall
// time, worker threads and their utilization, stage-specific counters,
// cache hit/miss). Observers consume these events:
//   * ProgressObserver  -- human-readable progress on stderr (replaces the
//                          ad-hoc fprintf(stderr, ...) lines of the benches;
//                          stdout stays clean for tables/CSV/JSON),
//   * JsonReportObserver -- collects all stage records and emits the
//                          machine-readable `--report=json` document.
#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/cache.hpp"

namespace ripple::pipeline {

struct StageStats {
  std::string stage;   // "find_mates"
  std::string detail;  // e.g. "AVR FF" — distinguishes invocations
  double seconds = 0.0;
  std::size_t threads = 1;
  /// Busy thread-seconds / (threads * wall); 0 when unknown or cached.
  double utilization = 0.0;
  bool cacheable = false;   // stage consults the artifact cache
  bool cache_hit = false;
  /// Ordered stage-specific counters ("mates", "candidates", ...).
  obs::CounterSet counters;
};

/// One campaign shard-progress tick: the structured form of the old
/// "[campaign] shard N/M ..." narration, so observers can consume the
/// numbers (daemon Stats responses) instead of re-parsing text.
struct CampaignProgress {
  std::size_t shard = 0;       // shard index that just finished
  std::size_t shards_done = 0; // finished so far (resumed + executed)
  std::size_t num_shards = 0;
  bool resumed = false;        // replayed from a checkpoint (zero cost)
  double seconds = 0.0;        // this shard's wall time (0 when resumed)
  std::size_t executed = 0;       // injections executed by this shard
  std::size_t executed_total = 0; // cumulative executed injections
  double inj_per_sec = 0.0;    // this shard's throughput (0 when resumed)
  double eta_seconds = 0.0;    // EtaTracker projection for the remainder
};

/// The canonical one-line rendering of a progress tick — shared by the
/// local ProgressObserver and the daemon's client-facing log frames so both
/// narrate identically.
[[nodiscard]] std::string format_campaign_progress(const CampaignProgress& p);

class StageObserver {
public:
  virtual ~StageObserver() = default;

  virtual void stage_begin(std::string_view stage, std::string_view detail) {
    (void)stage;
    (void)detail;
  }
  virtual void stage_end(const StageStats& stats) { (void)stats; }

  /// Free-form progress line (bench narration between stages).
  virtual void progress(std::string_view message) { (void)message; }

  /// Structured campaign shard progress (also rendered as a progress line
  /// by ProgressObserver).
  virtual void campaign_progress(const CampaignProgress& p) { (void)p; }
};

/// stderr narration: one line per stage completion plus pass-through
/// progress lines. Quiet by construction on stdout. Every line is built in
/// full and emitted as a single write, so lines from concurrent campaigns
/// (the rippled daemon attaches one labeled instance per execution) never
/// interleave mid-line; a non-empty `label` — e.g. the short request
/// checksum — prefixes each line as "[label] ..." to tell them apart.
class ProgressObserver final : public StageObserver {
public:
  explicit ProgressObserver(std::FILE* out = nullptr, std::string label = {});

  void stage_begin(std::string_view stage, std::string_view detail) override;
  void stage_end(const StageStats& stats) override;
  void progress(std::string_view message) override;
  void campaign_progress(const CampaignProgress& p) override;

private:
  void write_line(std::string_view line);

  std::FILE* out_;
  std::string label_;
};

/// Version of the shared `--report=json` envelope every binary (benches,
/// hafi_campaign, rippled, ripple-client) emits:
///   {"tool": ..., "version": N, "stages": [...], "counters": {...},
///    "histograms": {...}}
/// `stages[]` carries the per-stage records (wall time, threads,
/// utilization, cache outcome, stage counters); `counters{}` carries the
/// tool-wide totals (peak_rss_bytes, cache_* when a cache is attached,
/// service totals for the daemon). Version 2 added `histograms{}` —
/// count/sum/p50/p90/p99 per MetricRegistry histogram (shard_seconds,
/// lane_utilization) — plus the registry's counters and gauges folded into
/// `counters{}`; every v1 field is unchanged.
/// Documented in DESIGN.md §14/§15.
inline constexpr std::uint32_t kReportVersion = 2;

/// Collects stage records for the `--report=json` emitter. Thread-safe: the
/// rippled daemon feeds one instance from concurrent executions.
class JsonReportObserver final : public StageObserver {
public:
  void stage_end(const StageStats& stats) override;

  [[nodiscard]] std::vector<StageStats> stages() const;

  /// Set a tool-wide envelope counter (last write per name wins).
  void set_counter(const std::string& name, double value);
  /// Fold a cache's totals into the envelope counters (cache_enabled,
  /// cache_hits, cache_misses, cache_stores, cache_corrupt,
  /// cache_hit_ratio).
  void add_cache_counters(const ArtifactCache& cache);

  /// The metric registry whose counters/gauges/histograms the report folds
  /// in; defaults to obs::MetricRegistry::global(). Tests inject a private
  /// registry for isolation; nullptr omits the registry sections.
  void set_metric_registry(const obs::MetricRegistry* registry);

  /// Emit the shared report envelope. peak_rss_bytes is always included in
  /// counters{}; the overload taking a cache folds its totals in first.
  void write(std::ostream& os, std::string_view tool) const;
  void write(std::ostream& os, std::string_view tool,
             const ArtifactCache& cache);

private:
  mutable std::mutex mutex_;
  std::vector<StageStats> stages_;
  obs::CounterSet counters_;
  const obs::MetricRegistry* registry_ = &obs::MetricRegistry::global();
};

/// Process-wide peak resident set size in bytes (getrusage), 0 when
/// unavailable. Reported in `--report=json` and asserted against by
/// stream_smoke: the streaming pipeline's RSS must not scale with trace
/// length.
[[nodiscard]] std::size_t peak_rss_bytes();

} // namespace ripple::pipeline
