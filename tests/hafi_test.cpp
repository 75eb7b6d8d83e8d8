#include <gtest/gtest.h>

#include <algorithm>

#include "cores/avr/programs.hpp"
#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/registry.hpp"
#include "support/golden_run.hpp"
#include "support/scalar_campaign.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

/// The golden run of small_config()'s 400 cycles.
sim::TraceSource* golden400() {
  static const auto run = pipeline::golden_run(avr(), 400);
  return run.get();
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
  Campaign c1(target(), small_config(), golden400());
  Campaign c2(target(), small_config(), golden400());
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
  Campaign campaign(target(), small_config(), golden400());
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
  const auto golden = pipeline::golden_run(avr(), cfg.run_cycles);
  Campaign campaign(target(), cfg, golden.get());
  EXPECT_EQ(campaign.plan().points.size(), avr_netlist().num_flops() * 3);
}

TEST(Campaign, BaselineClassifiesOutcomes) {
  Campaign campaign(target(), small_config(), golden400());
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
  Campaign campaign(target(), cfg, golden400(), &search.set);
  const CampaignResult r = campaign.run();

  EXPECT_GT(r.pruned, 0u) << "MATEs should prune some sampled injections";
  // THE soundness check: every pruned injection, when executed anyway,
  // must be benign (a violation would have thrown SoundnessError).
  EXPECT_EQ(r.pruned_confirmed, r.pruned);
}

TEST(Campaign, PrunedSkippedWithoutValidation) {
  CampaignConfig cfg = small_config();
  cfg.mode = CampaignMode::Pruned;
  Campaign campaign(target(), cfg, golden400(), &avr_search().set);
  const CampaignResult r = campaign.run();
  EXPECT_EQ(r.executed + r.pruned, r.total);
  if (r.pruned > 0) {
    EXPECT_LT(r.executed, r.total);
  }
}

TEST(Campaign, BaselineAndPrunedAgreeOnExecutedOutcomes) {
  const CampaignConfig cfg = small_config();
  Campaign base_campaign(target(), cfg, golden400());
  const CampaignResult base = base_campaign.run();

  CampaignConfig vcfg = cfg;
  vcfg.mode = CampaignMode::Validate;
  Campaign pruned_campaign(target(), vcfg, golden400(), &avr_search().set);
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
  Campaign reference(target(), base, golden400());
  const CampaignPlan& expected = reference.plan();
  for (const std::size_t threads : {1u, 8u}) {
    for (const CampaignMode mode :
         {CampaignMode::Baseline, CampaignMode::Pruned,
          CampaignMode::Validate}) {
      CampaignConfig cfg = base;
      cfg.threads = threads;
      cfg.mode = mode;
      Campaign campaign(target(), cfg, golden400(), &avr_search().set);
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
  EXPECT_THROW(Campaign(target(), cfg, golden400()), Error);
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

    // Every carried lane spends each simulated cycle in one phase.
    const LaneCycles& lc = stats.lane_cycles;
    EXPECT_EQ(lc.pre_injection + lc.live + lc.idle,
              stats.lanes * stats.cycles)
        << core;

    // The counts are per pass, not cumulative over the DUT's lifetime.
    BatchRunStats again;
    (void)dut->run(points, kRunCycles, &again);
    EXPECT_EQ(again.cycles, stats.cycles) << core;
    EXPECT_EQ(again.gate_evals, stats.gate_evals) << core;
    EXPECT_EQ(again.lane_cycles, stats.lane_cycles) << core;
  }
}

TEST(BatchDutPass, CountsLaneCyclesByPhase) {
  // One small pass per core, pinned exactly: eight injections at cycles
  // 0, 25, ..., 175 of a 300-cycle run. A lane mirrors the golden run
  // before its injection cycle (0 + 25 + ... + 175 = 700 lane-cycles), is
  // live until it is classified, and idles after that while the pass runs
  // on; the three sum to 8 lanes x 300 cycles.
  struct Pin {
    const char* core;
    std::uint64_t cycles, pre_injection, live, idle;
  };
  for (const Pin& pin :
       {Pin{"avr", 300, 700, 1382, 318}, Pin{"msp430", 300, 700, 1551, 149}}) {
    const pipeline::CoreRuntime rt =
        pipeline::CoreRegistry::global().make(pin.core, "fib");
    std::vector<InjectionPoint> points;
    for (std::size_t i = 0; i < 8; ++i) {
      points.push_back(InjectionPoint{
          FlopId(static_cast<std::uint32_t>((i * 41) % rt.netlist->num_flops())),
          25 * i});
    }
    BatchRunStats stats;
    (void)rt.batch_factory()->run(points, 300, &stats);
    EXPECT_EQ(stats.cycles, pin.cycles) << pin.core;
    EXPECT_EQ(stats.lane_cycles.pre_injection, pin.pre_injection) << pin.core;
    EXPECT_EQ(stats.lane_cycles.live, pin.live) << pin.core;
    EXPECT_EQ(stats.lane_cycles.idle, pin.idle) << pin.core;
  }
}

TEST(BatchDutSnapshot, MatchesThePassFromReset) {
  // A pass started from the golden snapshot of its first injection cycle c0
  // is the pass from reset without its golden prefix: the same outcomes,
  // retirements and live and idle lane-cycles, c0 fewer cycles and lanes x
  // c0 fewer pre-injection lane-cycles, and no reset sweep. Random 63-lane
  // point sets on both cores x five workloads, among them one whose first
  // injection is at cycle 0 and one whose first is near the run's end.
  constexpr std::size_t kRunCycles = 400;
  std::size_t non_benign = 0;
  for (const char* core : {"avr", "msp430"}) {
    for (const char* workload : {"fib", "conv", "sort", "crc", "irq"}) {
      const pipeline::CoreRuntime rt =
          pipeline::CoreRegistry::global().make(core, workload);
      const netlist::Netlist& n = *rt.netlist;
      const auto golden = pipeline::golden_run(rt, kRunCycles);
      sim::WireCapture capture(kRunCycles, GoldenSnapshots::wires(n));
      golden->stream(capture);
      const GoldenSnapshots snapshots(n, capture.take());

      Rng rng(0x5eed + n.num_flops());
      // Point sets by the cycle range they inject in: the whole run (with
      // one injection at cycle 0), a 40-cycle window as a sorted campaign
      // pass has, the run's last 8 cycles, and a short pass mid-run.
      struct Range {
        std::uint64_t first, span;
        std::size_t lanes;
      };
      const std::uint64_t mid = 100 + rng.next_below(200);
      for (const Range& range :
           {Range{0, kRunCycles, kExperimentLanes},
            Range{mid, 40, kExperimentLanes},
            Range{kRunCycles - 8, 8, kExperimentLanes},
            Range{mid / 2, 150, 17}}) {
        std::vector<InjectionPoint> points;
        for (std::size_t i = 0; i < range.lanes; ++i) {
          points.push_back(InjectionPoint{
              FlopId(static_cast<std::uint32_t>(rng.next_below(n.num_flops()))),
              range.first + rng.next_below(range.span)});
        }
        if (range.first == 0) points[rng.next_below(points.size())].cycle = 0;
        const std::uint64_t c0 =
            std::min_element(points.begin(), points.end(),
                             [](const InjectionPoint& a,
                                const InjectionPoint& b) {
                               return a.cycle < b.cycle;
                             })
                ->cycle;
        SCOPED_TRACE(strprintf("%s %s, first injection at cycle %llu", core,
                               workload,
                               static_cast<unsigned long long>(c0)));

        // One DUT for both starts: a snapshot pass leaves nothing behind
        // that the reset pass after it could see.
        const std::unique_ptr<BatchDut> dut = rt.batch_factory();
        BatchRunStats snap;
        const std::vector<Outcome> from_snapshot =
            dut->run(points, kRunCycles, &snap, &snapshots);
        BatchRunStats reset;
        const std::vector<Outcome> from_reset =
            dut->run(points, kRunCycles, &reset);

        EXPECT_EQ(from_snapshot, from_reset);
        EXPECT_EQ(snap.lanes, reset.lanes);
        EXPECT_EQ(snap.lanes_retired_early, reset.lanes_retired_early);
        EXPECT_EQ(snap.lane_cycles_saved, reset.lane_cycles_saved);
        EXPECT_EQ(snap.lane_cycles.live, reset.lane_cycles.live);
        EXPECT_EQ(snap.lane_cycles.idle, reset.lane_cycles.idle);
        EXPECT_EQ(snap.cycles, reset.cycles - c0);
        EXPECT_EQ(snap.lane_cycles.pre_injection,
                  reset.lane_cycles.pre_injection - points.size() * c0);
        EXPECT_EQ(snap.gate_evals, snap.cycles * n.num_gates());
        non_benign += static_cast<std::size_t>(
            std::count_if(from_reset.begin(), from_reset.end(),
                          [](Outcome o) { return o != Outcome::Benign; }));
      }
    }
  }
  // The comparison covers diverging lanes, not only benign ones.
  EXPECT_GT(non_benign, 0u);
}

} // namespace
} // namespace ripple::hafi
