// The shared pipeline command line.
//
// Each binary registers exactly the shared flags some code path of it reads
// (a flag it would ignore is then an unknown flag: exit 2 before any work):
//   --report=json[:F]  emit the stage/cache report as JSON (stderr, or file F)
//   --trace-out=FILE   record spans and export a Chrome trace-event JSON
// (both always), plus the ones named in its SharedFlag mask:
//   --cache-dir=DIR    artifact cache directory (default: $RIPPLE_CACHE_DIR)
//   --no-cache         disable the artifact cache for this run
//   --threads=N        worker threads (0 = hardware concurrency, <= 1024)
//   --csv              machine-readable tables on stdout
//   --depth=N          override SearchParams::path_depth (32-bit)
//   --cycles=N         override the trace length
//   --trace-chunk-cycles=N  streaming trace chunk length (multiple of 64)
// and the campaign flags of CampaignOptions (kCampaignFlags for all five).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/pipeline.hpp"
#include "util/options.hpp"

namespace ripple::pipeline {

/// The shared flags beyond --report and --trace-out, one bit each; a binary
/// passes the mask of those it reads.
enum SharedFlag : unsigned {
  kCache = 1u << 0, // --cache-dir and --no-cache
  kThreads = 1u << 1,
  kCsv = 1u << 2,
  kDepth = 1u << 3,
  kCycles = 1u << 4,
  kTraceChunkCycles = 1u << 5,
  kSample = 1u << 6,
  kRunCycles = 1u << 7,
  kValidatePruned = 1u << 8,
  kShardSize = 1u << 9,
  kResume = 1u << 10,
};
inline constexpr unsigned kCampaignFlags =
    kSample | kRunCycles | kValidatePruned | kShardSize | kResume;

/// Upper bound of --threads: a larger value is a typo, not a pool size.
inline constexpr std::size_t kMaxThreads = 1024;

/// The campaign flags:
///   --sample=N           sampled injection points (0 = exhaustive)
///   --run-cycles=N       cycles per golden/faulty run
///   --validate-pruned    execute pruned injections and verify soundness
///   --shard-size=N       injection points per checkpointable shard (0=auto)
///   --resume             persist finished shards to the artifact cache and
///                        skip shards already checkpointed there
/// (`--threads` applies to the shard fan-out as well.)
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
  CampaignOptions campaign; // the campaign flags

  /// PipelineConfig derived from the flags (env fallback applied).
  [[nodiscard]] PipelineConfig config() const;

  /// Default SearchParams with --depth/--threads applied.
  [[nodiscard]] mate::SearchParams search_params() const;

  /// --report handling. Valid values: "" (off), "json", "json:FILE".
  [[nodiscard]] bool report_json() const;
  /// Output file of --report=json:FILE; empty = stderr.
  [[nodiscard]] std::string report_file() const;
};

/// A valid --report value: "json" or "json:FILE". Every binary's --report
/// is checked against it at parse time.
[[nodiscard]] bool is_report_format(std::string_view value);

/// An integer that fits 32 bits: --depth, and ripple-client's --top-n,
/// travel as 32-bit fields.
[[nodiscard]] bool fits_uint32(std::string_view value);

/// Register --report, --trace-out and the shared flags in `flags`, campaign
/// flags included, on a parser (each binary may add its own). A bad
/// --report, --threads, --depth or --trace-chunk-cycles value fails the
/// parse.
void register_pipeline_options(OptionParser& parser, PipelineOptions& opts,
                               unsigned flags);

} // namespace ripple::pipeline
