// The shard-parallel campaign engine's contracts: byte-identical results for
// any thread count, shard-checkpoint interrupt/resume (including stale
// checkpoints and a simulated mid-campaign kill), the SoundnessError abort
// path under validate mode, and pipeline-level resume through the artifact
// cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <map>
#include <stdexcept>

#include <unistd.h>

#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"
#include "support/golden_run.hpp"
#include "util/serialize.hpp"

namespace ripple::hafi {
namespace {

/// The production target: the registry's AVR running fib.
const pipeline::CoreRuntime& avr() {
  static const pipeline::CoreRuntime rt =
      pipeline::CoreRegistry::global().make("avr", "fib");
  return rt;
}

/// The golden run of small_config()'s 300 cycles.
const std::unique_ptr<pipeline::ChunkedTraceStream>& golden() {
  static const auto run = pipeline::golden_run(avr(), 300);
  return run;
}

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.run_cycles = 300;
  cfg.sample = 48;
  cfg.seed = 3;
  cfg.threads = 2;
  cfg.shard_size = 8; // 6 shards of 8 points
  return cfg;
}

std::vector<std::uint8_t> result_bytes(const CampaignResult& r) {
  ByteWriter w;
  pipeline::write_campaign_result(w, r);
  return w.take();
}

TEST(CampaignParallel, ByteIdenticalAcrossThreadCounts) {
  std::vector<std::uint8_t> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    CampaignConfig cfg = small_config();
    cfg.threads = threads;
    Campaign campaign(avr().target(), cfg, golden().get());
    const std::vector<std::uint8_t> bytes = result_bytes(campaign.run());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads
                                  << " changed the campaign result";
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(CampaignParallel, CheckpointRoundTripAfterSimulatedKill) {
  CampaignConfig cfg = small_config();
  cfg.threads = 1; // deterministic shard execution order for the kill

  Campaign clean(avr().target(), cfg, golden().get());
  const std::vector<std::uint8_t> expected = result_bytes(clean.run());

  // First attempt: persist shards, then die once three are stored — the
  // simulated kill -9 halfway through the campaign. The caller thread
  // participates in the pool, so one in-flight shard may still land its
  // store while the kill unwinds; anything in [3, num_shards) is a genuine
  // partial campaign.
  std::map<std::size_t, ShardResult> persisted;
  struct Killed {};
  {
    Campaign campaign(avr().target(), cfg, golden().get());
    Campaign::ShardHooks hooks;
    hooks.store = [&](const ShardResult& shard) {
      persisted.emplace(shard.shard, shard);
      if (persisted.size() >= 3) throw Killed{};
    };
    EXPECT_THROW((void)campaign.run(hooks), Killed);
  }
  ASSERT_GE(persisted.size(), 3u);

  // Second attempt: resume from the persisted shards. Exactly the stored
  // shards are served from the checkpoint, and the merged result is
  // byte-identical to the uninterrupted campaign.
  Campaign campaign(avr().target(), cfg, golden().get());
  ASSERT_LT(persisted.size(), campaign.plan().num_shards());
  std::size_t resumed = 0;
  std::size_t executed_shards = 0;
  Campaign::ShardHooks hooks;
  hooks.load = [&](std::size_t index) -> std::optional<ShardResult> {
    const auto it = persisted.find(index);
    if (it == persisted.end()) return std::nullopt;
    return it->second;
  };
  hooks.progress = [&](const Campaign::ShardProgress& p) {
    (p.resumed ? resumed : executed_shards) += 1;
  };
  const CampaignResult result = campaign.run(hooks);
  EXPECT_EQ(resumed, persisted.size());
  EXPECT_EQ(executed_shards, campaign.plan().num_shards() - persisted.size());
  EXPECT_EQ(result_bytes(result), expected);
}

TEST(CampaignParallel, StaleCheckpointIsDiscardedAndReExecuted) {
  CampaignConfig cfg = small_config();
  Campaign clean(avr().target(), cfg, golden().get());
  const std::vector<std::uint8_t> expected = result_bytes(clean.run());

  Campaign campaign(avr().target(), cfg, golden().get());
  std::size_t resumed = 0;
  std::size_t loads = 0;
  Campaign::ShardHooks hooks;
  hooks.load = [&](std::size_t index) -> std::optional<ShardResult> {
    ++loads;
    // A checkpoint whose experiments do not match the plan (here: written
    // against some other sampling) must not be trusted.
    ShardResult stale;
    stale.shard = static_cast<std::uint32_t>(index);
    stale.experiments.resize(1);
    return stale;
  };
  hooks.progress = [&](const Campaign::ShardProgress& p) {
    if (p.resumed) ++resumed;
  };
  const CampaignResult result = campaign.run(hooks);
  EXPECT_EQ(loads, campaign.plan().num_shards());
  EXPECT_EQ(resumed, 0u);
  EXPECT_EQ(result_bytes(result), expected);
}

TEST(CampaignParallel, ValidateModeAbortsOnSoundnessViolation) {
  // A fabricated MATE set whose single MATE has an empty cube (constant
  // true) and claims every flop benign in every cycle — maximally unsound.
  // Validate mode executes the "pruned" injections anyway and must abort
  // with a per-shard violation report.
  mate::MateSet bogus;
  bogus.faulty_wires = mate::all_flop_wires(*avr().netlist);
  mate::Mate mate;
  mate.masked_wires = bogus.faulty_wires;
  bogus.mates.push_back(std::move(mate));

  CampaignConfig cfg = small_config();
  cfg.run_cycles = 400; // the baseline fixture where non-benign outcomes
  cfg.sample = 60;      // are known to occur (see hafi_test)
  cfg.seed = 7;
  cfg.mode = CampaignMode::Validate;
  const auto golden = pipeline::golden_run(avr(), cfg.run_cycles);
  Campaign campaign(avr().target(), cfg, golden.get(), &bogus);
  try {
    (void)campaign.run();
    FAIL() << "expected SoundnessError";
  } catch (const SoundnessError& e) {
    ASSERT_FALSE(e.violations().empty());
    const std::string report = e.what();
    EXPECT_NE(report.find("soundness"), std::string::npos);
    EXPECT_NE(report.find("shard"), std::string::npos);
    EXPECT_NE(report.find("flop"), std::string::npos);
    for (const SoundnessViolation& v : e.violations()) {
      EXPECT_NE(v.outcome, Outcome::Benign);
      EXPECT_LT(v.shard, campaign.plan().num_shards());
    }
  }
}

TEST(CampaignParallel, PipelineResumeReplaysShardsFromCache) {
  const auto cache_dir =
      std::filesystem::temp_directory_path() /
      ("ripple_campaign_resume_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

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

  const auto run_once = [&](const std::shared_ptr<Recorder>& rec) {
    pipeline::PipelineConfig config;
    config.cache_dir = cache_dir;
    config.threads = 2;
    pipeline::CampaignPipeline pipe(config);
    pipe.add_observer(rec);

    pipeline::CampaignSpec spec;
    spec.runtime = avr();
    spec.config = small_config();
    spec.resume = true;
    return result_bytes(pipe.campaign(std::move(spec), "resume test"));
  };

  const auto cold = std::make_shared<Recorder>();
  const auto warm = std::make_shared<Recorder>();
  const std::vector<std::uint8_t> first = run_once(cold);
  const std::vector<std::uint8_t> second = run_once(warm);

  EXPECT_EQ(cold->counter("shards_resumed"), 0.0);
  EXPECT_EQ(warm->counter("shards_resumed"), warm->counter("shards"));
  EXPECT_GT(warm->counter("shards"), 0.0);
  EXPECT_EQ(first, second);

  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

TEST(CampaignParallel, ShardResultRoundTripsThroughArtifact) {
  ShardResult shard;
  shard.shard = 7;
  shard.experiments = {
      Experiment{InjectionPoint{FlopId{3}, 17}, true, true, Outcome::Benign},
      Experiment{InjectionPoint{FlopId{9}, 0}, false, true, Outcome::Sdc},
      Experiment{InjectionPoint{FlopId{1}, 250}, true, false,
                 Outcome::Benign},
  };
  ByteWriter w;
  pipeline::write_shard_result(w, shard);
  const std::vector<std::uint8_t> bytes = w.take();
  ByteReader r(bytes);
  const ShardResult back = pipeline::read_shard_result(r);
  r.expect_done();
  EXPECT_EQ(back, shard);
}

} // namespace
} // namespace ripple::hafi
