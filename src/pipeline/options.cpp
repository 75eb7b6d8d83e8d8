#include "pipeline/options.hpp"

#include <cstdint>
#include <cstdlib>
#include <limits>

#include "util/strings.hpp"

namespace ripple::pipeline {

PipelineConfig PipelineOptions::config() const {
  PipelineConfig config;
  if (!cache_dir.empty()) {
    config.cache_dir = cache_dir;
  } else if (const char* env = std::getenv("RIPPLE_CACHE_DIR");
             env != nullptr && env[0] != '\0') {
    config.cache_dir = env;
  }
  config.use_cache = !no_cache;
  config.threads = threads;
  if (trace_chunk_cycles != 0) config.trace_chunk_cycles = trace_chunk_cycles;
  return config;
}

mate::SearchParams PipelineOptions::search_params() const {
  mate::SearchParams params;
  // --depth fits 32 bits, checked at parse time.
  if (depth != 0) params.path_depth = static_cast<unsigned>(depth);
  if (threads != 0) params.threads = threads;
  return params;
}

bool is_report_format(std::string_view value) {
  return value == "json" || value.starts_with("json:");
}

bool fits_uint32(std::string_view value) {
  const auto parsed = parse_int(value);
  return parsed && *parsed <= std::numeric_limits<std::uint32_t>::max();
}

bool PipelineOptions::report_json() const { return is_report_format(report); }

std::string PipelineOptions::report_file() const {
  if (report.rfind("json:", 0) == 0) return report.substr(5);
  return {};
}

hafi::CampaignConfig CampaignOptions::apply(hafi::CampaignConfig config) const {
  if (sample != kUnset) config.sample = sample;
  if (run_cycles != kUnset) config.run_cycles = run_cycles;
  if (shard_size != 0) config.shard_size = shard_size;
  return config;
}

void register_pipeline_options(OptionParser& parser, PipelineOptions& opts,
                               unsigned flags) {
  if (flags & kCsv) {
    parser.add_flag("csv", "emit CSV instead of the pretty table", &opts.csv);
  }
  if (flags & kCache) {
    parser.add_value("cache-dir",
                     "artifact cache directory (default: $RIPPLE_CACHE_DIR)",
                     &opts.cache_dir);
    parser.add_flag("no-cache", "disable the artifact cache", &opts.no_cache);
  }
  if (flags & kThreads) {
    parser.add_value("threads",
                     "worker threads (0 = hardware concurrency, at most "
                     "1024)",
                     &opts.threads, [](std::string_view value) {
                       return *parse_int(value) <=
                              static_cast<std::int64_t>(kMaxThreads);
                     });
  }
  if (flags & kDepth) {
    parser.add_value("depth",
                     "override the path-depth heuristic parameter (at most "
                     "4294967295)",
                     &opts.depth, fits_uint32);
  }
  if (flags & kCycles) {
    parser.add_value("cycles", "override the trace length", &opts.cycles);
  }
  if (flags & kTraceChunkCycles) {
    parser.add_value("trace-chunk-cycles",
                     "streaming trace chunk length in cycles (multiple of 64; "
                     "0 = default 65536)",
                     &opts.trace_chunk_cycles, [](std::string_view value) {
                       return *parse_int(value) % 64 == 0;
                     });
  }
  parser.add_value("report", "stage/cache report format: json[:FILE]",
                   &opts.report, is_report_format);
  parser.add_value("trace-out",
                   "export recorded spans as Chrome trace-event JSON to FILE",
                   &opts.trace_out);
  if (flags & kSample) {
    parser.add_value("sample",
                     "sampled injection points (0 = exhaustive fault space)",
                     &opts.campaign.sample);
  }
  if (flags & kRunCycles) {
    parser.add_value("run-cycles", "cycles per golden/faulty campaign run",
                     &opts.campaign.run_cycles);
  }
  if (flags & kValidatePruned) {
    parser.add_flag("validate-pruned",
                    "execute pruned injections anyway and verify soundness",
                    &opts.campaign.validate_pruned);
  }
  if (flags & kShardSize) {
    parser.add_value("shard-size",
                     "injection points per campaign shard (0 = auto)",
                     &opts.campaign.shard_size);
  }
  if (flags & kResume) {
    parser.add_flag("resume",
                    "checkpoint finished shards to the artifact cache and "
                    "skip shards already stored there",
                    &opts.campaign.resume);
  }
}

} // namespace ripple::pipeline
