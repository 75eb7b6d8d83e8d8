// End-to-end pipeline smoke test (the `pipeline_smoke` ctest target): run a
// short AVR campaign pipeline twice against the same temp cache directory
// and assert the second run replays record_trace/find_mates/select from the
// cache with identical results.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include <unistd.h>

#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {
namespace {

struct Recorder : StageObserver {
  std::vector<StageStats> stages;
  void stage_end(const StageStats& stats) override { stages.push_back(stats); }

  [[nodiscard]] const StageStats& stage(std::string_view name) const {
    for (const StageStats& s : stages) {
      if (s.stage == name) return s;
    }
    ADD_FAILURE() << "no stage " << name;
    static const StageStats none;
    return none;
  }
};

struct RunResult {
  std::shared_ptr<Recorder> rec = std::make_shared<Recorder>();
  std::vector<std::uint8_t> search_bytes;
  std::vector<std::uint8_t> selection_bytes;
};

void run_once(const std::filesystem::path& cache_dir, RunResult& out) {
  PipelineConfig config;
  config.cache_dir = cache_dir;
  config.threads = 2;
  CampaignPipeline pipe(config);
  pipe.add_observer(out.rec);

  // 500 cycles keep the smoke run short; a subset of the FF-w/o-RF fault
  // set with modest budgets keeps the search itself in the sub-second range.
  CoreSetupSpec spec;
  spec.kind = CoreKind::Avr;
  spec.trace_cycles = 500;
  const CoreSetup setup = pipe.setup(spec);

  std::vector<WireId> faulty = setup.ff_xrf;
  if (faulty.size() > 32) faulty.resize(32);

  mate::SearchParams params = pipe.default_params();
  params.path_depth = 10;
  params.max_candidates_per_wire = 5000;

  const mate::SearchResult search =
      pipe.find_mates(setup, faulty, params, "smoke");
  sim::TransposedTraceSource fib(setup.fib_trace);
  const mate::EvalResult eval =
      pipe.evaluate_stream(search.set, fib, setup.fib_trace_fp, "smoke");
  (void)eval;
  const mate::SelectionResult sel =
      pipe.select_stream(search.set, fib, setup.fib_trace_fp, "smoke");

  ByteWriter ws;
  write_search_result(ws, search);
  out.search_bytes = ws.take();
  ByteWriter wsel;
  write_selection(wsel, sel);
  out.selection_bytes = wsel.take();
}

TEST(PipelineSmoke, SecondRunReplaysFromCache) {
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("ripple_smoke_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  RunResult cold, warm;
  run_once(cache_dir, cold);
  run_once(cache_dir, warm);

  // First run computes everything...
  EXPECT_FALSE(cold.rec->stage("find_mates").cache_hit);
  EXPECT_FALSE(cold.rec->stage("record_trace").cache_hit);
  EXPECT_FALSE(cold.rec->stage("evaluate").cache_hit);
  EXPECT_FALSE(cold.rec->stage("select").cache_hit);

  // ...the second run replays the cached artifacts.
  EXPECT_TRUE(warm.rec->stage("record_trace").cache_hit);
  EXPECT_TRUE(warm.rec->stage("find_mates").cache_hit);
  EXPECT_TRUE(warm.rec->stage("evaluate").cache_hit);
  EXPECT_TRUE(warm.rec->stage("select").cache_hit);

  // Identical results, byte for byte (canonical serialization as the deep
  // equality oracle).
  EXPECT_EQ(cold.search_bytes, warm.search_bytes);
  EXPECT_EQ(cold.selection_bytes, warm.selection_bytes);

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

} // namespace
} // namespace ripple::pipeline
