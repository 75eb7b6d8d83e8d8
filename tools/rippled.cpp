// rippled — the resident campaign service daemon.
//
// Listens on a Unix-domain socket for serialized CampaignRequests
// (submitted by ripple-client or anything speaking the protocol of
// src/serve/protocol.hpp), multiplexes concurrent campaigns over one shared
// artifact cache and one fair worker pool, dedupes identical in-flight
// requests onto a single execution, and streams per-stage progress back to
// every attached client. SIGINT/SIGTERM shut it down cleanly; with
// --report=json the service totals and every executed stage are emitted as
// the shared report envelope on exit.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "pipeline/harness.hpp"
#include "serve/server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop = true; }

} // namespace

int main(int argc, char** argv) {
  using namespace ripple;

  std::string socket_path;
  pipeline::PipelineOptions opts;
  OptionParser parser(
      "rippled",
      "Campaign service daemon: accepts serialized campaign requests over a "
      "Unix socket, shares one artifact cache and worker pool across "
      "concurrent clients, and dedupes identical in-flight requests.");
  parser.add_value("socket", "Unix-domain socket path to listen on",
                   &socket_path);
  // Only the flags the daemon honours: the campaign shape (depth, cycles,
  // chunking, ...) arrives with each request.
  pipeline::register_pipeline_options(parser, opts,
                                      pipeline::kCache | pipeline::kThreads);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "rippled: --socket=PATH is required\nsee --help\n");
    return 2;
  }
  pipeline::Exporter exporter;
  if (!exporter.open("rippled", opts)) return 2;

  serve::ServerConfig config;
  config.socket_path = socket_path;
  // Reuse the shared flag set's cache-dir resolution ($RIPPLE_CACHE_DIR
  // fallback, --no-cache).
  const pipeline::PipelineConfig pipeline_config = opts.config();
  config.cache_dir = pipeline_config.use_cache ? pipeline_config.cache_dir : "";
  config.threads = opts.threads;

  serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rippled: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "[rippled] listening on %s (cache: %s)\n",
               socket_path.c_str(),
               config.cache_dir.empty() ? "disabled"
                                        : config.cache_dir.c_str());

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "[rippled] shutting down\n");
  server.stop();

  const bool traced = exporter.write_trace();

  const serve::Server::Stats stats = server.stats();
  std::fprintf(stderr,
               "[rippled] served %zu sessions, %zu submissions "
               "(%zu deduped), %zu executions\n",
               stats.sessions, stats.submissions, stats.deduped,
               stats.executions);

  pipeline::JsonReportObserver& report = *server.report();
  report.set_counter("service_sessions", static_cast<double>(stats.sessions));
  report.set_counter("service_submissions",
                     static_cast<double>(stats.submissions));
  report.set_counter("service_deduped", static_cast<double>(stats.deduped));
  report.set_counter("service_executions",
                     static_cast<double>(stats.executions));
  const bool reported = exporter.write_report(report, &server.cache());
  return traced && reported ? 0 : 1;
}
