#include "pipeline/observer.hpp"

#include <cmath>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "mate/report.hpp" // json_escape
#include "util/strings.hpp"

namespace ripple::pipeline {
namespace {

/// Doubles in JSON: integers print bare, everything else with enough digits
/// to round-trip the interesting range (timings, fractions).
std::string json_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return strprintf("%.0f", v);
  }
  return strprintf("%.6g", v);
}

} // namespace

std::string format_campaign_progress(const CampaignProgress& p) {
  if (p.resumed) {
    return strprintf("[campaign] shard %zu/%zu resumed from checkpoint",
                     p.shards_done, p.num_shards);
  }
  return strprintf("[campaign] shard %zu/%zu done: %.0f inj/s, ETA %.1f s",
                   p.shards_done, p.num_shards, p.inj_per_sec, p.eta_seconds);
}

ProgressObserver::ProgressObserver(std::FILE* out, std::string label)
    : out_(out != nullptr ? out : stderr), label_(std::move(label)) {}

void ProgressObserver::write_line(std::string_view line) {
  // One buffer, one fwrite: lines from concurrent executions (the daemon
  // runs one labeled observer per campaign on a shared stderr) come out
  // whole instead of interleaved mid-line.
  std::string buffer;
  buffer.reserve(label_.size() + line.size() + 4);
  if (!label_.empty()) {
    buffer += '[';
    buffer += label_;
    buffer += "] ";
  }
  buffer += line;
  buffer += '\n';
  std::fwrite(buffer.data(), 1, buffer.size(), out_);
  std::fflush(out_);
}

void ProgressObserver::stage_begin(std::string_view stage,
                                   std::string_view detail) {
  std::string line = "[";
  line += stage;
  line += "]";
  if (!detail.empty()) {
    line += " ";
    line += detail;
  }
  line += " ...";
  write_line(line);
}

void ProgressObserver::stage_end(const StageStats& stats) {
  std::string line = "[" + stats.stage + "]";
  if (!stats.detail.empty()) line += " " + stats.detail;
  line += strprintf(": %.2f s", stats.seconds);
  if (stats.cacheable) {
    line += stats.cache_hit ? " (cache hit)" : " (cache miss)";
  }
  if (stats.threads > 1) {
    line += strprintf(", %zu threads", stats.threads);
    if (stats.utilization > 0.0) {
      line += strprintf(" (%.0f %% busy)", 100.0 * stats.utilization);
    }
  }
  write_line(line);
}

void ProgressObserver::progress(std::string_view message) {
  write_line(message);
}

void ProgressObserver::campaign_progress(const CampaignProgress& p) {
  write_line(format_campaign_progress(p));
}

void JsonReportObserver::stage_end(const StageStats& stats) {
  std::lock_guard lock(mutex_);
  stages_.push_back(stats);
}

std::vector<StageStats> JsonReportObserver::stages() const {
  std::lock_guard lock(mutex_);
  return stages_;
}

void JsonReportObserver::set_counter(const std::string& name, double value) {
  std::lock_guard lock(mutex_);
  counters_.set(name, value);
}

void JsonReportObserver::add_cache_counters(const ArtifactCache& cache) {
  const ArtifactCache::Stats cs = cache.stats();
  set_counter("cache_enabled", cache.enabled() ? 1.0 : 0.0);
  set_counter("cache_hits", static_cast<double>(cs.hits));
  set_counter("cache_misses", static_cast<double>(cs.misses));
  set_counter("cache_stores", static_cast<double>(cs.stores));
  set_counter("cache_corrupt", static_cast<double>(cs.corrupt));
  const std::size_t lookups = cs.hits + cs.misses;
  if (lookups > 0) {
    const double ratio =
        static_cast<double>(cs.hits) / static_cast<double>(lookups);
    set_counter("cache_hit_ratio", ratio);
    obs::MetricRegistry::global().gauge("cache_hit_ratio").set(ratio);
  }
}

void JsonReportObserver::set_metric_registry(
    const obs::MetricRegistry* registry) {
  std::lock_guard lock(mutex_);
  registry_ = registry;
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss); // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024; // KiB on Linux
#endif
#else
  return 0;
#endif
}

void JsonReportObserver::write(std::ostream& os, std::string_view tool) const {
  std::vector<StageStats> stages;
  const obs::MetricRegistry* registry = nullptr;
  obs::CounterSet counters;
  {
    std::lock_guard lock(mutex_);
    stages = stages_;
    registry = registry_;
    // Registry counters/gauges first, explicit envelope counters on top
    // (an explicit set_counter wins over a registry metric of the same
    // name); entry order stays deterministic either way.
    if (registry != nullptr) counters = registry->counters();
    for (const auto& [name, value] : counters_) counters.set(name, value);
  }
  os << "{\n  \"tool\": \"" << mate::json_escape(tool) << "\",\n";
  os << "  \"version\": " << kReportVersion << ",\n";
  os << "  \"stages\": [\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageStats& s = stages[i];
    os << "    {\"stage\": \"" << mate::json_escape(s.stage) << "\"";
    if (!s.detail.empty()) {
      os << ", \"detail\": \"" << mate::json_escape(s.detail) << "\"";
    }
    os << ", \"seconds\": " << json_number(s.seconds);
    os << ", \"threads\": " << s.threads;
    if (s.utilization > 0.0) {
      os << ", \"utilization\": " << json_number(s.utilization);
    }
    if (s.cacheable) {
      os << ", \"cache\": \"" << (s.cache_hit ? "hit" : "miss") << "\"";
    }
    if (!s.counters.empty()) {
      os << ", \"counters\": {";
      for (std::size_t c = 0; c < s.counters.size(); ++c) {
        if (c != 0) os << ", ";
        os << "\"" << mate::json_escape(s.counters[c].first)
           << "\": " << json_number(s.counters[c].second);
      }
      os << "}";
    }
    os << "}" << (i + 1 < stages.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"counters\": {\"peak_rss_bytes\": " << peak_rss_bytes();
  for (const auto& [name, value] : counters) {
    os << ", \"" << mate::json_escape(name) << "\": " << json_number(value);
  }
  os << "},\n";

  // Report v2: quantile summaries of every registry histogram, sorted by
  // name. Always present (possibly empty) so consumers need not probe.
  os << "  \"histograms\": {";
  if (registry != nullptr) {
    const auto snapshots = registry->histograms();
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      const obs::Histogram::Snapshot& h = snapshots[i];
      if (i != 0) os << ",";
      os << "\n    \"" << mate::json_escape(h.name)
         << "\": {\"count\": " << h.count
         << ", \"sum\": " << json_number(h.sum)
         << ", \"p50\": " << json_number(h.quantile(0.50))
         << ", \"p90\": " << json_number(h.quantile(0.90))
         << ", \"p99\": " << json_number(h.quantile(0.99)) << "}";
    }
    if (!snapshots.empty()) os << "\n  ";
  }
  os << "}\n}\n";
}

} // namespace ripple::pipeline
