#include <gtest/gtest.h>

#include "cores/avr/programs.hpp"
#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/registry.hpp"
#include "support/golden_run.hpp"
#include "support/scalar_campaign.hpp"

namespace ripple::hafi {
namespace {

/// The production target: the registry's AVR running fib.
const pipeline::CoreRuntime& avr() {
  static const pipeline::CoreRuntime rt =
      pipeline::CoreRegistry::global().make("avr", "fib");
  return rt;
}

CampaignTarget target() { return avr().target(); }

const netlist::Netlist& avr_netlist() { return *avr().netlist; }

CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.run_cycles = 400;
  cfg.sample = 60;
  cfg.seed = 7;
  return cfg;
}

const mate::SearchResult& avr_search() {
  static const mate::SearchResult r = [] {
    mate::SearchParams sp;
    sp.threads = 2;
    return find_mates(avr_netlist(), mate::all_flop_wires(avr_netlist()), sp);
  }();
  return r;
}

TEST(Campaign, PlanIsDeterministicAndInRange) {
  Campaign c1(target(), small_config());
  Campaign c2(target(), small_config());
  const CampaignPlan& p1 = c1.plan();
  const CampaignPlan& p2 = c2.plan();
  ASSERT_EQ(p1.points.size(), 60u);
  ASSERT_EQ(p1.points, p2.points);
  EXPECT_EQ(p1.shard_size, p2.shard_size);
  for (const InjectionPoint& p : p1.points) {
    EXPECT_LT(p.flop.index(), avr_netlist().num_flops());
    EXPECT_LT(p.cycle, 400u);
  }
}

TEST(Campaign, PlanShardsPartitionThePoints) {
  Campaign campaign(target(), small_config());
  const CampaignPlan& plan = campaign.plan();
  ASSERT_GT(plan.shard_size, 0u);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.shard_begin(s), covered);
    EXPECT_EQ(plan.shard(s).size(), plan.shard_end(s) - plan.shard_begin(s));
    EXPECT_GT(plan.shard(s).size(), 0u);
    covered += plan.shard(s).size();
  }
  EXPECT_EQ(covered, plan.points.size());
}

TEST(Campaign, ExhaustiveWhenSampleZero) {
  CampaignConfig cfg;
  cfg.run_cycles = 3;
  cfg.sample = 0;
  Campaign campaign(target(), cfg);
  EXPECT_EQ(campaign.plan().points.size(), avr_netlist().num_flops() * 3);
}

TEST(Campaign, BaselineClassifiesOutcomes) {
  Campaign campaign(target(), small_config());
  const CampaignResult r = campaign.run();
  EXPECT_EQ(r.total, 60u);
  EXPECT_EQ(r.executed, 60u);
  EXPECT_EQ(r.pruned, 0u);
  EXPECT_EQ(r.benign + r.latent + r.sdc, 60u);
  // A fib run on a small core: faults must produce at least some of each
  // extreme class (not everything benign, not everything fatal).
  EXPECT_GT(r.benign, 0u);
  EXPECT_GT(r.sdc + r.latent, 0u);
}

TEST(Campaign, MatePruningSavesExperimentsAndIsSound) {
  const mate::SearchResult& search = avr_search();
  ASSERT_GT(search.set.mates.size(), 0u);

  CampaignConfig cfg = small_config();
  cfg.sample = 600; // fib masks ~3 % of the space; 600 draws make a zero-
                    // prune campaign astronomically unlikely
  cfg.mode = CampaignMode::Validate;
  const auto golden = pipeline::golden_run(avr(), cfg.run_cycles);
  Campaign campaign(target(), cfg, &search.set, golden.get());
  const CampaignResult r = campaign.run();

  EXPECT_GT(r.pruned, 0u) << "MATEs should prune some sampled injections";
  // THE soundness check: every pruned injection, when executed anyway,
  // must be benign (a violation would have thrown SoundnessError).
  EXPECT_EQ(r.pruned_confirmed, r.pruned);
}

TEST(Campaign, PrunedSkippedWithoutValidation) {
  CampaignConfig cfg = small_config();
  cfg.mode = CampaignMode::Pruned;
  const auto golden = pipeline::golden_run(avr(), cfg.run_cycles);
  Campaign campaign(target(), cfg, &avr_search().set, golden.get());
  const CampaignResult r = campaign.run();
  EXPECT_EQ(r.executed + r.pruned, r.total);
  if (r.pruned > 0) {
    EXPECT_LT(r.executed, r.total);
  }
}

TEST(Campaign, BaselineAndPrunedAgreeOnExecutedOutcomes) {
  const CampaignConfig cfg = small_config();
  Campaign base_campaign(target(), cfg);
  const CampaignResult base = base_campaign.run();

  CampaignConfig vcfg = cfg;
  vcfg.mode = CampaignMode::Validate;
  const auto golden = pipeline::golden_run(avr(), cfg.run_cycles);
  Campaign pruned_campaign(target(), vcfg, &avr_search().set,
                           golden.get());
  const CampaignResult pruned = pruned_campaign.run();

  ASSERT_EQ(base.experiments.size(), pruned.experiments.size());
  for (std::size_t i = 0; i < base.experiments.size(); ++i) {
    EXPECT_EQ(base.experiments[i].point, pruned.experiments[i].point);
    EXPECT_EQ(base.experiments[i].outcome, pruned.experiments[i].outcome);
  }
  EXPECT_EQ(base.sdc, pruned.sdc);
}

TEST(Campaign, PlanIsTheSameForEveryModeAndThreadCount) {
  // The plan reads the netlist's flops and run_cycles, sample, seed and
  // shard_size — never the mode or the thread count — so Baseline, Pruned
  // and Validate campaigns over one config inject the same points.
  const CampaignConfig base = small_config();
  Campaign reference(target(), base);
  const CampaignPlan& expected = reference.plan();
  const auto golden = pipeline::golden_run(avr(), base.run_cycles);
  for (const std::size_t threads : {1u, 8u}) {
    for (const CampaignMode mode :
         {CampaignMode::Baseline, CampaignMode::Pruned,
          CampaignMode::Validate}) {
      CampaignConfig cfg = base;
      cfg.threads = threads;
      cfg.mode = mode;
      Campaign campaign(target(), cfg, &avr_search().set, golden.get());
      EXPECT_EQ(campaign.plan().points, expected.points)
          << "mode=" << mode_name(mode) << " threads=" << threads;
      EXPECT_EQ(campaign.plan().shard_size, expected.shard_size)
          << "mode=" << mode_name(mode) << " threads=" << threads;
    }
  }
}

TEST(Campaign, ModeRequiresMateSet) {
  CampaignConfig cfg = small_config();
  cfg.mode = CampaignMode::Pruned;
  EXPECT_THROW(Campaign(target(), cfg), Error);
}

TEST(AvrDutAdapter, ObservableAndStateChange) {
  // The scalar oracle's DUT (tests/support).
  static const cores::avr::AvrCore core = cores::avr::build_avr_core(true);
  static const cores::avr::Program fib = cores::avr::fib_program();
  AvrDut dut(core, fib);
  EXPECT_TRUE(dut.observable().empty());
  for (int i = 0; i < 400; ++i) dut.step();
  EXPECT_FALSE(dut.observable().empty());
  AvrDut fresh(core, fib);
  EXPECT_NE(dut.observable(), fresh.observable());
}

TEST(BatchDutPass, EvaluatesEachGateOncePerCycle) {
  // Each simulated cycle is one gate sweep (state, then the input fan-out
  // once the memories are served); the extra sweep is reset()'s settle.
  for (const char* core : {"avr", "msp430"}) {
    const pipeline::CoreRuntime rt =
        pipeline::CoreRegistry::global().make(core, "fib");
    const std::unique_ptr<BatchDut> dut = rt.batch_factory();
    std::vector<InjectionPoint> points;
    for (std::size_t i = 0; i < kExperimentLanes; ++i) {
      points.push_back(InjectionPoint{
          FlopId(static_cast<std::uint32_t>((i * 37) % rt.netlist->num_flops())),
          5 + 3 * i});
    }
    constexpr std::size_t kRunCycles = 400;
    BatchRunStats stats;
    (void)dut->run(points, kRunCycles, &stats);
    EXPECT_GT(stats.cycles, 5 + 3 * (kExperimentLanes - 1)) << core;
    EXPECT_LE(stats.cycles, kRunCycles) << core;
    EXPECT_EQ(stats.gate_evals, (stats.cycles + 1) * rt.netlist->num_gates())
        << core;

    // The counts are per pass, not cumulative over the DUT's lifetime.
    BatchRunStats again;
    (void)dut->run(points, kRunCycles, &again);
    EXPECT_EQ(again.cycles, stats.cycles) << core;
    EXPECT_EQ(again.gate_evals, stats.gate_evals) << core;
  }
}

} // namespace
} // namespace ripple::hafi
