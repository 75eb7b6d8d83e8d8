// ripple-client — submit one campaign request to a rippled daemon and
// stream its progress.
//
// The request is pure data (core/workload names, campaign config, MATE
// derivation); the daemon resolves it through its CoreRegistry and streams
// back the same stage events a local run would produce, so --report=json
// works here exactly like in the benches. With --result-out=FILE the
// terminal result's canonical bytes are written out verbatim — two clients
// of one deduped execution (or a client and a standalone run) can be
// compared byte for byte. --stats skips submission entirely and prints a
// live snapshot of the daemon (per-campaign progress, scheduler load, cache
// totals) without disturbing running executions.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "pipeline/artifact.hpp"
#include "pipeline/harness.hpp"
#include "serve/client.hpp"
#include "util/strings.hpp"

namespace {

/// Map a daemon stage name onto a static string for the synthetic client
/// spans (--trace-out): span names must outlive the recorder, and the stage
/// vocabulary is closed.
const char* stage_span_name(const std::string& stage) {
  if (stage == "setup") return "stage:setup";
  if (stage == "record_trace") return "stage:record_trace";
  if (stage == "find_mates") return "stage:find_mates";
  if (stage == "evaluate") return "stage:evaluate";
  if (stage == "select") return "stage:select";
  if (stage == "campaign") return "stage:campaign";
  return "stage:other";
}

void print_service_stats(const ripple::serve::ServiceStats& s) {
  std::printf("sessions %llu  submissions %llu  deduped %llu  "
              "executions %llu  in-flight %llu\n",
              static_cast<unsigned long long>(s.sessions),
              static_cast<unsigned long long>(s.submissions),
              static_cast<unsigned long long>(s.deduped),
              static_cast<unsigned long long>(s.executions),
              static_cast<unsigned long long>(s.in_flight));
  std::printf("scheduler: %llu threads, %llu streams, %llu queued shards\n",
              static_cast<unsigned long long>(s.scheduler_threads),
              static_cast<unsigned long long>(s.scheduler_streams),
              static_cast<unsigned long long>(s.scheduler_queued));
  if (s.cache_enabled) {
    std::printf("cache: %llu hits, %llu misses, %llu stores\n",
                static_cast<unsigned long long>(s.cache_hits),
                static_cast<unsigned long long>(s.cache_misses),
                static_cast<unsigned long long>(s.cache_stores));
  } else {
    std::printf("cache: disabled\n");
  }
  for (const auto& c : s.campaigns) {
    std::string line = ripple::strprintf(
        "campaign %016llx: %s — ",
        static_cast<unsigned long long>(c.checksum), c.summary.c_str());
    if (c.num_shards > 0) {
      line += ripple::strprintf(
          "%llu/%llu shards, %llu injections",
          static_cast<unsigned long long>(c.shards_done),
          static_cast<unsigned long long>(c.num_shards),
          static_cast<unsigned long long>(c.executed));
      if (c.inj_per_sec > 0.0) {
        line += ripple::strprintf(", %.0f inj/s, ETA %.1f s", c.inj_per_sec,
                                  c.eta_seconds);
      }
    } else {
      line += "before the campaign stage";
    }
    if (c.finished) line += " (finished)";
    line += ripple::strprintf(", %llu client%s",
                              static_cast<unsigned long long>(c.clients),
                              c.clients == 1 ? "" : "s");
    std::printf("%s\n", line.c_str());
  }
}

/// The campaign mode --mode names ("" is the default, baseline).
std::optional<ripple::hafi::CampaignMode> mode_named(std::string_view mode) {
  if (mode.empty() || mode == "baseline")
    return ripple::hafi::CampaignMode::Baseline;
  if (mode == "pruned") return ripple::hafi::CampaignMode::Pruned;
  if (mode == "validate") return ripple::hafi::CampaignMode::Validate;
  return std::nullopt;
}

} // namespace

int main(int argc, char** argv) {
  using namespace ripple;

  std::string socket_path;
  std::string core = "avr";
  std::string workload;
  std::string mode;
  std::string result_out;
  bool stats = false;
  std::size_t top_n = 0;
  std::size_t select_cycles = 0;
  pipeline::PipelineOptions opts; // --depth, --report, --trace-out, campaign

  OptionParser parser(
      "ripple-client",
      "Submit a campaign request to a rippled daemon and stream its "
      "progress. Identical concurrent requests share one execution.");
  parser.add_value("socket", "rippled Unix-domain socket path", &socket_path);
  parser.add_value("core", "core name registered in the daemon (avr, msp430)",
                   &core);
  parser.add_value("workload", "workload name (default: the core's default)",
                   &workload);
  parser.add_value("mode", "campaign mode: baseline (default), pruned or "
                   "validate", &mode, [](std::string_view v) {
                     return mode_named(v).has_value();
                   });
  parser.add_value("top-n", "keep only the top-N MATEs of the greedy "
                   "selection (0 = full set, at most 4294967295)", &top_n,
                   pipeline::fits_uint32);
  parser.add_value("select-cycles", "selection trace length (0 = "
                   "--run-cycles)", &select_cycles);
  parser.add_value("result-out", "write the result's canonical bytes to FILE",
                   &result_out);
  parser.add_flag("stats", "print a live stats snapshot of the daemon "
                  "instead of submitting a request", &stats);
  // --trace-out holds the streamed stage timeline. No --resume: the daemon
  // checkpoints every campaign.
  pipeline::register_pipeline_options(
      parser, opts,
      pipeline::kDepth | pipeline::kSample | pipeline::kRunCycles |
          pipeline::kValidatePruned | pipeline::kShardSize);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr,
                 "ripple-client: --socket=PATH is required\nsee --help\n");
    return 2;
  }
  pipeline::Exporter exporter;
  if (!exporter.open("ripple-client", opts)) return 2;

  if (stats) {
    try {
      serve::ServeClient client = serve::ServeClient::connect(socket_path);
      print_service_stats(client.stats());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ripple-client: %s\n", e.what());
      return 1;
    }
    // A snapshot runs no stage: the envelope and the trace are empty.
    pipeline::JsonReportObserver no_stages;
    return exporter.write_trace() && exporter.write_report(no_stages) ? 0 : 1;
  }

  int exit_code = 0;
  try {
    pipeline::CampaignRequest request;
    request.core = core;
    request.workload = workload;
    hafi::CampaignConfig config;
    config.mode = *mode_named(mode); // checked at parse time
    if (config.mode == hafi::CampaignMode::Pruned) {
      config.mode = opts.campaign.pruned_mode();
    }
    request.config = opts.campaign.apply(config);
    // --top-n and --depth fit 32 bits, checked at parse time.
    request.top_n = static_cast<std::uint32_t>(top_n);
    request.search_depth = static_cast<std::uint32_t>(opts.depth);
    request.select_cycles = select_cycles;

    serve::ServeClient client = serve::ServeClient::connect(socket_path);
    const auto accepted = client.submit(request);
    std::fprintf(stderr, "[ripple-client] accepted, checksum %016llx%s\n",
                 static_cast<unsigned long long>(accepted.checksum),
                 accepted.attached ? " (attached to an in-flight execution)"
                                   : "");

    pipeline::ProgressObserver progress;
    pipeline::JsonReportObserver report_observer;
    // --trace-out: synthesize one span per streamed StageEnd, anchored so
    // it *ends* at arrival time — the daemon's wire frames carry durations,
    // not timestamps, so the timeline is exact in widths and approximate in
    // gaps (network/replay latency).
    obs::TraceRecorder* recorder = exporter.recorder();
    bool done = false;
    while (!done) {
      auto message = client.next();
      if (!message.has_value()) {
        std::fprintf(stderr,
                     "ripple-client: daemon vanished before the result\n");
        return 1;
      }
      switch (message->type) {
        case serve::MsgType::kLog: progress.progress(message->text); break;
        case serve::MsgType::kStageBegin:
          progress.stage_begin(message->stage, message->detail);
          break;
        case serve::MsgType::kStageEnd:
          progress.stage_end(message->stats);
          report_observer.stage_end(message->stats);
          if (recorder != nullptr) {
            const std::uint64_t end = recorder->now_ns();
            const auto dur =
                static_cast<std::uint64_t>(message->stats.seconds * 1e9);
            recorder->record("pipeline", stage_span_name(message->stats.stage),
                             message->stats.detail,
                             end > dur ? end - dur : 0, end);
          }
          break;
        case serve::MsgType::kResult: {
          ByteReader r(message->result_bytes);
          const hafi::CampaignResult result =
              pipeline::read_campaign_result(r);
          r.expect_done();
          std::printf(
              "total %zu  pruned %zu  executed %zu  benign %zu  latent %zu  "
              "sdc %zu\n",
              result.total, result.pruned, result.executed, result.benign,
              result.latent, result.sdc);
          if (!result_out.empty()) {
            std::ofstream out(result_out, std::ios::binary);
            RIPPLE_CHECK(static_cast<bool>(out),
                         "cannot write result file ", result_out);
            out.write(
                reinterpret_cast<const char*>(message->result_bytes.data()),
                static_cast<std::streamsize>(message->result_bytes.size()));
          }
          done = true;
          break;
        }
        case serve::MsgType::kError:
          std::fprintf(stderr, "ripple-client: daemon error: %s\n",
                       message->text.c_str());
          exit_code = 1;
          done = true;
          break;
        default: break;
      }
    }

    const bool traced = exporter.write_trace();
    if (!exporter.write_report(report_observer) || !traced) exit_code = 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ripple-client: %s\n", e.what());
    return 1;
  }
  return exit_code;
}
