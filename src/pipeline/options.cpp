#include "pipeline/options.hpp"

#include <cstdlib>

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
  return apply(mate::SearchParams{});
}

mate::SearchParams PipelineOptions::apply(mate::SearchParams params) const {
  if (depth != 0) params.path_depth = static_cast<unsigned>(depth);
  if (threads != 0) params.threads = threads;
  return params;
}

bool is_report_format(std::string_view value) {
  return value == "json" || value.starts_with("json:");
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

void register_campaign_options(OptionParser& parser, CampaignOptions& opts) {
  parser.add_value("sample",
                   "sampled injection points (0 = exhaustive fault space)",
                   &opts.sample);
  parser.add_value("run-cycles", "cycles per golden/faulty campaign run",
                   &opts.run_cycles);
  parser.add_flag("validate-pruned",
                  "execute pruned injections anyway and verify soundness",
                  &opts.validate_pruned);
  parser.add_value("shard-size",
                   "injection points per campaign shard (0 = auto)",
                   &opts.shard_size);
  parser.add_flag("resume",
                  "checkpoint finished shards to the artifact cache and "
                  "skip shards already stored there",
                  &opts.resume);
}

void register_pipeline_options(OptionParser& parser, PipelineOptions& opts) {
  parser.add_flag("csv", "emit CSV instead of the pretty table", &opts.csv);
  parser.add_value("cache-dir",
                   "artifact cache directory (default: $RIPPLE_CACHE_DIR)",
                   &opts.cache_dir);
  parser.add_flag("no-cache", "disable the artifact cache", &opts.no_cache);
  parser.add_value("threads",
                   "MATE-search worker threads (0 = hardware concurrency)",
                   &opts.threads);
  parser.add_value("depth", "override the path-depth heuristic parameter",
                   &opts.depth);
  parser.add_value("cycles", "override the trace length", &opts.cycles);
  parser.add_value("trace-chunk-cycles",
                   "streaming trace chunk length in cycles (multiple of 64; "
                   "0 = default 65536)",
                   &opts.trace_chunk_cycles, [](std::string_view value) {
                     return *parse_int(value) % 64 == 0;
                   });
  parser.add_value("report", "stage/cache report format: json[:FILE]",
                   &opts.report, is_report_format);
  parser.add_value("trace-out",
                   "export recorded spans as Chrome trace-event JSON to FILE",
                   &opts.trace_out);
}

} // namespace ripple::pipeline
