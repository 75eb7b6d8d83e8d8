// The 64-lane batch engine against the one-boot-per-experiment scalar
// oracle (tests/support): the registry's production targets must produce a
// byte-identical CampaignResult to the oracle across both cores, all three
// CampaignModes and any thread count — the production golden run (a chunk
// stream scored by mate::benign_masks) against the oracle's own (a scalar
// trace scored by benign_matrix) — and checkpoints cut from the oracle's
// result must replay under the batch engine after a kill. Also pins down
// the lane-utilization accounting that feeds the --report=json counters and
// the campaign's refusal of incomplete targets and misshapen golden runs.
#include <gtest/gtest.h>

#include <map>

#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/registry.hpp"
#include "support/golden_run.hpp"
#include "support/scalar_campaign.hpp"
#include "util/serialize.hpp"

namespace ripple::hafi {
namespace {

struct Target {
  pipeline::CoreRuntime runtime; // the registry's production target
  DutFactory oracle;             // scalar DUTs over a core build of their own
  mate::SearchResult search;
};

/// `without_regfile` leaves the register file out of the MATE search to keep
/// it test-sized; the campaign only consults the MATEs of searched flops.
Target make_target(const std::string& core, bool without_regfile) {
  Target t;
  t.runtime = pipeline::CoreRegistry::global().make(core, "fib");
  t.oracle = make_oracle_factory(core, "fib");
  const netlist::Netlist& n = *t.runtime.netlist;
  const std::vector<WireId> faulty =
      without_regfile
          ? mate::flop_wires_excluding_prefix(n, t.runtime.regfile_prefix)
          : mate::all_flop_wires(n);
  mate::SearchParams sp;
  sp.threads = 2;
  t.search = mate::find_mates(n, faulty, sp);
  return t;
}

const Target& avr_target() {
  static const Target t = make_target("avr", false);
  return t;
}

const Target& msp430_target() {
  static const Target t = make_target("msp430", true);
  return t;
}

CampaignConfig small_config(std::size_t sample, std::size_t run_cycles) {
  CampaignConfig cfg;
  cfg.run_cycles = run_cycles;
  cfg.sample = sample;
  cfg.seed = 3;
  cfg.threads = 2;
  cfg.shard_size = 8;
  return cfg;
}

const mate::MateSet* mates_for(const Target& t, CampaignMode mode) {
  return mode != CampaignMode::Baseline ? &t.search.set : nullptr;
}

std::vector<std::uint8_t> result_bytes(const CampaignResult& r) {
  ByteWriter w;
  pipeline::write_campaign_result(w, r);
  return w.take();
}

/// The oracle's campaign over the batch campaign's own plan (which the mode
/// does not change).
CampaignResult oracle_result(const Target& t, const CampaignConfig& cfg) {
  CampaignConfig plan_cfg = cfg;
  plan_cfg.mode = CampaignMode::Baseline;
  Campaign planner(t.runtime.target(), plan_cfg);
  return run_scalar_campaign(t.oracle, cfg, planner.plan().points,
                             mates_for(t, cfg.mode));
}

void expect_matches_oracle(const Target& t, const CampaignConfig& base) {
  for (const CampaignMode mode :
       {CampaignMode::Baseline, CampaignMode::Pruned,
        CampaignMode::Validate}) {
    CampaignConfig cfg = base;
    cfg.mode = mode;
    const CampaignResult reference = oracle_result(t, cfg);
    // Both the pruning decisions and the SDC classification take part.
    EXPECT_GT(reference.sdc, 0u) << "mode=" << mode_name(mode);
    if (mode != CampaignMode::Baseline) {
      EXPECT_GT(reference.pruned, 0u) << "mode=" << mode_name(mode);
    }
    const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      cfg.threads = threads;
      Campaign campaign(t.runtime.target(), cfg, mates_for(t, mode),
                        golden.get());
      EXPECT_EQ(result_bytes(campaign.run()), result_bytes(reference))
          << "batch engine differs from the scalar oracle: mode="
          << mode_name(mode) << " threads=" << threads;
    }
  }
}

TEST(CampaignBatch, AvrEnginesByteIdenticalAcrossModesAndThreads) {
  expect_matches_oracle(avr_target(), small_config(48, 300));
}

TEST(CampaignBatch, Msp430EnginesByteIdenticalAcrossModesAndThreads) {
  // 350 cycles: within 250 the MSP430 fib run turns only about 1 % of
  // injections into SDCs, too few for a small sample to cover.
  expect_matches_oracle(msp430_target(), small_config(40, 350));
}

TEST(CampaignBatch, ScalarCheckpointsReplayUnderBitparAfterKill) {
  // A campaign killed after storing its first three shards, with those
  // checkpoints cut from the scalar oracle's result: the resumed batch
  // campaign replays them, executes the rest, and merges to the oracle's
  // result byte for byte.
  const Target& t = avr_target();
  CampaignConfig cfg = small_config(48, 300);
  cfg.mode = CampaignMode::Pruned;
  const CampaignResult expected = oracle_result(t, cfg);

  const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
  Campaign campaign(t.runtime.target(), cfg, &t.search.set, golden.get());
  const CampaignPlan& plan = campaign.plan();
  std::map<std::size_t, ShardResult> persisted;
  for (std::size_t s = 0; s < 3; ++s) {
    ShardResult shard;
    shard.shard = static_cast<std::uint32_t>(s);
    shard.experiments.assign(
        expected.experiments.begin() +
            static_cast<std::ptrdiff_t>(plan.shard_begin(s)),
        expected.experiments.begin() +
            static_cast<std::ptrdiff_t>(plan.shard_end(s)));
    persisted.emplace(s, std::move(shard));
  }
  ASSERT_LT(persisted.size(), plan.num_shards());

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
    if (p.resumed) {
      // Nothing ran for a resumed shard, so it reports no engine work.
      EXPECT_EQ(p.dut_passes, 0u);
      EXPECT_EQ(p.lane_slots, 0u);
    }
  };
  const CampaignResult result = campaign.run(hooks);
  EXPECT_EQ(resumed, persisted.size());
  EXPECT_EQ(executed_shards, plan.num_shards() - persisted.size());
  EXPECT_EQ(result_bytes(result), result_bytes(expected));
}

struct LaneRun {
  CampaignResult result;
  std::size_t dut_passes = 0;
};

/// Runs a Baseline campaign of `cfg` on `t`, checking every shard's lane
/// accounting: a shard of E executed points runs ceil(E/63) passes of 63
/// lane slots each.
LaneRun run_checking_lanes(const Target& t, const CampaignConfig& cfg) {
  LaneRun run;
  std::size_t executed = 0;
  std::size_t lane_slots = 0;
  std::size_t retired = 0;
  Campaign::ShardHooks hooks;
  hooks.progress = [&](const Campaign::ShardProgress& p) {
    executed += p.executed;
    run.dut_passes += p.dut_passes;
    lane_slots += p.lane_slots;
    retired += p.lanes_retired_early;
    EXPECT_EQ(p.dut_passes,
              (p.executed + kExperimentLanes - 1) / kExperimentLanes);
    EXPECT_EQ(p.lane_slots, p.dut_passes * kExperimentLanes);
  };
  Campaign campaign(t.runtime.target(), cfg);
  run.result = campaign.run(hooks);
  EXPECT_EQ(executed, run.result.executed);
  EXPECT_GE(lane_slots, executed);
  EXPECT_LE(retired, executed);
  return run;
}

TEST(CampaignBatch, LaneUtilizationAccounting) {
  // 8-point shards fit one pass each, so far fewer passes than experiments.
  CampaignConfig cfg = small_config(48, 300);
  const LaneRun small = run_checking_lanes(avr_target(), cfg);
  EXPECT_LT(small.dut_passes, small.result.executed);

  // Shards of two full 63-lane passes, on both cores, byte-identical to the
  // scalar oracle.
  cfg.run_cycles = 250;
  cfg.sample = 150;
  cfg.seed = 23;
  cfg.shard_size = 2 * kExperimentLanes;
  for (const Target* t : {&avr_target(), &msp430_target()}) {
    SCOPED_TRACE(t->runtime.netlist->name());
    EXPECT_EQ(result_bytes(run_checking_lanes(*t, cfg).result),
              result_bytes(oracle_result(*t, cfg)));
  }
}

TEST(CampaignBatch, RejectsTargetWithoutBatchFactory) {
  CampaignTarget target = avr_target().runtime.target();
  target.batch_factory = nullptr;
  EXPECT_THROW(Campaign(target, small_config(24, 200)), Error);
}

TEST(CampaignBatch, PrunedAndValidateNeedAGoldenRun) {
  const Target& t = avr_target();
  CampaignConfig cfg = small_config(24, 200);
  // Baseline runs no golden trace, so it needs none.
  const CampaignResult baseline = Campaign(t.runtime.target(), cfg).run();
  EXPECT_EQ(baseline.executed, 24u);
  for (const CampaignMode mode :
       {CampaignMode::Pruned, CampaignMode::Validate}) {
    cfg.mode = mode;
    EXPECT_THROW(Campaign(t.runtime.target(), cfg, &t.search.set), Error)
        << "mode=" << mode_name(mode);
  }
}

TEST(CampaignBatch, RejectsGoldenRunOfTheWrongShape) {
  // The golden run must cover exactly run_cycles cycles of every netlist
  // wire; the shape is checked before anything streams.
  struct Shape final : sim::TraceSource {
    std::size_t wires = 0;
    std::size_t cycles = 0;
    std::size_t streams = 0;
    [[nodiscard]] std::size_t num_wires() const override { return wires; }
    [[nodiscard]] std::size_t num_cycles() const override { return cycles; }
    [[nodiscard]] std::size_t chunk_cycles() const override { return 64; }
    void stream(sim::TraceSink&) override { ++streams; }
  };
  const Target& t = avr_target();
  CampaignConfig cfg = small_config(24, 200);
  cfg.mode = CampaignMode::Pruned;
  const std::size_t wires = t.runtime.netlist->num_wires();
  for (const auto& [w, c] : {std::pair{wires, std::size_t{199}},
                             std::pair{wires, std::size_t{201}},
                             std::pair{wires - 1, std::size_t{200}},
                             std::pair{wires + 1, std::size_t{200}}}) {
    Shape golden;
    golden.wires = w;
    golden.cycles = c;
    try {
      Campaign(t.runtime.target(), cfg, &t.search.set, &golden);
      ADD_FAILURE() << "accepted a " << c << "-cycle golden run of " << w
                    << " wires";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("golden run"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(golden.streams, 0u);
  }
}

} // namespace
} // namespace ripple::hafi
