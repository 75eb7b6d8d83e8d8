// Observability end-to-end smoke (CI target `obs_smoke`, also run under
// -DRIPPLE_SANITIZE): a small AVR campaign plus a streamed evaluation with
// a TraceRecorder installed must
//   * produce a well-formed Chrome trace-event JSON with spans from at
//     least four layers (pipeline stage, campaign shard, stream chunk,
//     scheduler slice),
//   * emit a version-2 report envelope whose histograms section carries the
//     campaign's shard_seconds and lane_utilization distributions, and
//   * leave the campaign result byte-identical to an untraced run —
//     observability must never feed back into results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "mate/eval.hpp"
#include "mate/mate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/observer.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "pipeline/request.hpp"
#include "serve/scheduler.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {
namespace {

#if defined(RIPPLE_SANITIZED)
constexpr std::size_t kStreamCycles = 16 * 1024; // scaled, still 4 chunks
#else
constexpr std::size_t kStreamCycles = 64 * 1024; // 16 chunks
#endif
constexpr std::size_t kChunkCycles = 4 * 1024;

struct TempDir {
  std::filesystem::path path;

  TempDir() {
    const auto base = std::filesystem::temp_directory_path();
    for (int i = 0;; ++i) {
      auto candidate =
          base / ("ripple_obs_smoke_" + std::to_string(::getpid()) + "_" +
                  std::to_string(i));
      if (std::filesystem::create_directories(candidate)) {
        path = std::move(candidate);
        return;
      }
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

CampaignRequest small_request() {
  CampaignRequest request;
  request.core = "avr";
  request.config.run_cycles = 200;
  request.config.sample = 24;
  request.config.seed = 7;
  request.config.threads = 2;
  request.config.shard_size = 6; // 4 shards
  return request;
}

/// One traced campaign + streamed evaluation over a fresh cache; returns
/// the campaign result's canonical bytes.
std::vector<std::uint8_t> run_workload(
    const std::filesystem::path& cache, serve::FairScheduler& scheduler,
    const std::shared_ptr<JsonReportObserver>& report) {
  PipelineConfig config;
  config.cache_dir = cache;
  config.threads = 2;
  config.trace_chunk_cycles = kChunkCycles;
  config.shard_executor = [&scheduler](
                              std::size_t n,
                              const std::function<void(std::size_t)>& task) {
    scheduler.run(n, task);
  };
  CampaignPipeline pipe(config);
  if (report != nullptr) pipe.add_observer(report);

  // Streamed evaluation: exercises the chunked trace pipeline (stream
  // chunks, async consumer) alongside the campaign.
  const auto stream = pipe.trace_stream(CoreKind::Avr, "crc", kStreamCycles);
  mate::MateSet set;
  set.faulty_wires = {WireId{5}, WireId{9}};
  mate::Mate m;
  std::vector<mate::Literal> lits = {{WireId{10}, true}};
  m.cube = mate::Cube(std::move(lits));
  m.masked_wires = {WireId{5}};
  set.mates.push_back(std::move(m));
  const mate::EvalResult eval =
      pipe.evaluate_stream(set, *stream, stream->fingerprint(), "AVR crc");
  EXPECT_EQ(eval.num_cycles, kStreamCycles);

  const hafi::CampaignResult result = pipe.run(small_request());
  EXPECT_GT(result.executed, 0u);
  ByteWriter w;
  write_campaign_result(w, result);
  return w.take();
}

TEST(ObsSmoke, TracedCampaignExportsSpansFromEveryLayerByteIdentically) {
  serve::FairScheduler scheduler(2);

  // Reference run, tracing off: Span construction must take the nullptr
  // branch throughout.
  ASSERT_EQ(obs::TraceRecorder::current(), nullptr);
  TempDir cache_off;
  const std::vector<std::uint8_t> untraced =
      run_workload(cache_off.path, scheduler, nullptr);

  // Traced run over a fresh cache (same work, nothing replayed).
  obs::TraceRecorder recorder;
  obs::TraceRecorder::install(&recorder);
  const auto report = std::make_shared<JsonReportObserver>();
  TempDir cache_on;
  const std::vector<std::uint8_t> traced =
      run_workload(cache_on.path, scheduler, report);
  obs::TraceRecorder::install(nullptr);

  // Perturbation-free: byte-identical result with tracing on.
  EXPECT_EQ(traced, untraced);

  // Spans from >= 4 layers, identified by category.
  const auto events = recorder.snapshot();
  ASSERT_FALSE(events.empty());
  std::set<std::string> cats;
  std::set<std::string> names;
  for (const auto& e : events) {
    cats.insert(e.cat);
    names.insert(e.name);
  }
  EXPECT_TRUE(cats.count("pipeline")) << "pipeline stage spans missing";
  EXPECT_TRUE(cats.count("hafi")) << "campaign shard spans missing";
  EXPECT_TRUE(cats.count("stream")) << "stream chunk spans missing";
  EXPECT_TRUE(cats.count("sched")) << "scheduler slice spans missing";
  EXPECT_TRUE(names.count("stage:campaign"));
  EXPECT_TRUE(names.count("shard"));
  EXPECT_TRUE(names.count("chunk"));
  EXPECT_TRUE(names.count("slice"));

  // The exported Chrome trace is structurally valid and carries the spans.
  std::ostringstream trace_os;
  recorder.write_chrome_json(trace_os);
  const std::string trace_json = trace_os.str();
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace_json.find("stage:campaign"), std::string::npos);
  EXPECT_EQ(std::count(trace_json.begin(), trace_json.end(), '{'),
            std::count(trace_json.begin(), trace_json.end(), '}'));
  EXPECT_EQ(std::count(trace_json.begin(), trace_json.end(), '['),
            std::count(trace_json.begin(), trace_json.end(), ']'));

  // The v2 report envelope carries the campaign's histograms.
  std::ostringstream report_os;
  report->write(report_os, "obs_smoke");
  const std::string report_json = report_os.str();
  EXPECT_NE(report_json.find("\"version\": 2"), std::string::npos);
  // Searched from the histograms{} key on: "lane_utilization" is also a
  // campaign stage counter.
  const std::size_t histograms = report_json.find("\"histograms\"");
  ASSERT_NE(histograms, std::string::npos);
  EXPECT_NE(report_json.find("\"shard_seconds\"", histograms),
            std::string::npos);
  EXPECT_NE(report_json.find("\"lane_utilization\"", histograms),
            std::string::npos);
  EXPECT_EQ(std::count(report_json.begin(), report_json.end(), '{'),
            std::count(report_json.begin(), report_json.end(), '}'));
}

} // namespace
} // namespace ripple::pipeline
