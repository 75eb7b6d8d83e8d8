// End-to-end campaign smoke test (the `campaign_smoke` ctest target): a tiny
// sharded campaign on the registry's AVR target (64-lane batch DUT) on 2
// threads, run twice against the same temp cache directory with --resume
// semantics forced on. The second run must replay every shard from the
// checkpoint artifacts with a byte-identical merged result. Kept small
// enough for sanitizer builds (TSan included) and registered under a stable
// name so CI can invoke `ctest -R campaign_smoke` directly.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include <unistd.h>

#include "hafi/campaign.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "util/serialize.hpp"

namespace ripple::hafi {
namespace {

struct Recorder : pipeline::StageObserver {
  std::vector<pipeline::StageStats> stages;
  void stage_end(const pipeline::StageStats& s) override {
    stages.push_back(s);
  }
  [[nodiscard]] double counter(const std::string& name) const {
    for (const auto& [k, v] : stages.back().counters) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "no counter " << name;
    return -1;
  }
};

TEST(CampaignSmoke, InterruptedCampaignResumesByteIdentical) {
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("ripple_campaign_smoke_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  const pipeline::CoreRuntime avr =
      pipeline::CoreRegistry::global().make("avr", "fib");

  const auto run_once = [&](const std::shared_ptr<Recorder>& rec) {
    pipeline::PipelineConfig config;
    config.cache_dir = cache_dir;
    config.threads = 2;
    pipeline::CampaignPipeline pipe(config);
    pipe.add_observer(rec);

    pipeline::CampaignSpec spec;
    spec.runtime = avr;
    spec.config.run_cycles = 200;
    spec.config.sample = 24;
    spec.config.seed = 5;
    spec.config.threads = 2;
    spec.config.shard_size = 6; // 4 shards
    spec.resume = true;
    const CampaignResult result = pipe.campaign(std::move(spec), "smoke");
    ByteWriter w;
    pipeline::write_campaign_result(w, result);
    return w.take();
  };

  const auto cold = std::make_shared<Recorder>();
  const auto warm = std::make_shared<Recorder>();
  const std::vector<std::uint8_t> first = run_once(cold);
  const std::vector<std::uint8_t> second = run_once(warm);

  EXPECT_EQ(cold->counter("shards_resumed"), 0.0);
  EXPECT_EQ(warm->counter("shards"), 4.0);
  EXPECT_EQ(warm->counter("shards_resumed"), 4.0);
  EXPECT_EQ(first, second);

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

} // namespace
} // namespace ripple::hafi
