// The shared pipeline command line.
//
// Every bench/example binary registers this flag set on its OptionParser:
//   --csv              machine-readable tables on stdout
//   --cache-dir=DIR    artifact cache directory (default: $RIPPLE_CACHE_DIR)
//   --no-cache         disable the artifact cache for this run
//   --threads=N        MATE-search worker threads (0 = hardware concurrency)
//   --depth=N          override SearchParams::path_depth
//   --cycles=N         override the trace length
//   --trace-chunk-cycles=N  streaming trace chunk length (multiple of 64)
//   --report=json[:F]  emit the stage/cache report as JSON (stderr, or file F)
//   --trace-out=FILE   record spans and export a Chrome trace-event JSON
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/pipeline.hpp"
#include "util/options.hpp"

namespace ripple::pipeline {

struct PipelineOptions {
  bool csv = false;
  bool no_cache = false;
  std::string cache_dir; // empty -> $RIPPLE_CACHE_DIR -> caching off
  std::size_t threads = 0;
  std::size_t depth = 0;  // 0 = keep SearchParams default
  std::size_t cycles = 0; // 0 = keep the binary's default
  std::string report;     // "", "json" or "json:FILE"
  std::size_t trace_chunk_cycles = 0; // 0 = kDefaultChunkCycles
  std::string trace_out;  // empty = span recording off (near-zero cost)

  /// PipelineConfig derived from the flags (env fallback applied).
  [[nodiscard]] PipelineConfig config() const;

  /// Default SearchParams with --depth/--threads applied.
  [[nodiscard]] mate::SearchParams search_params() const;
  /// Apply --depth/--threads to existing params.
  [[nodiscard]] mate::SearchParams apply(mate::SearchParams params) const;

  /// --report handling. Valid values: "" (off), "json", "json:FILE".
  [[nodiscard]] bool report_json() const;
  /// Output file of --report=json:FILE; empty = stderr.
  [[nodiscard]] std::string report_file() const;
};

/// A valid --report value: "json" or "json:FILE". Every binary's --report
/// is checked against it at parse time.
[[nodiscard]] bool is_report_format(std::string_view value);

/// Register the shared flags on a parser (each binary may add its own). A
/// bad --report or --trace-chunk-cycles value fails the parse.
void register_pipeline_options(OptionParser& parser, PipelineOptions& opts);

/// The shared campaign flag set (previously duplicated hard-coded configs
/// across the hafi benches):
///   --sample=N           sampled injection points (0 = exhaustive)
///   --run-cycles=N       cycles per golden/faulty run
///   --validate-pruned    execute pruned injections and verify soundness
///   --shard-size=N       injection points per checkpointable shard (0=auto)
///   --resume             persist finished shards to the artifact cache and
///                        skip shards already checkpointed there
/// (`--threads` comes from the pipeline flag set and applies to the shard
/// fan-out as well.)
struct CampaignOptions {
  std::size_t sample = kUnset;     // kUnset = keep the binary's default
  std::size_t run_cycles = kUnset; // kUnset = keep the binary's default
  bool validate_pruned = false;
  std::size_t shard_size = 0;
  bool resume = false;

  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

  /// Apply the flag overrides to a binary's default campaign config. The
  /// mode is the caller's choice per campaign run; --validate-pruned
  /// upgrades Pruned to Validate via pruned_mode().
  [[nodiscard]] hafi::CampaignConfig apply(hafi::CampaignConfig config) const;

  /// Pruned, or Validate when --validate-pruned was passed.
  [[nodiscard]] hafi::CampaignMode pruned_mode() const {
    return validate_pruned ? hafi::CampaignMode::Validate
                           : hafi::CampaignMode::Pruned;
  }
};

void register_campaign_options(OptionParser& parser, CampaignOptions& opts);

} // namespace ripple::pipeline
