// The 64-lane batch engine against the one-boot-per-experiment scalar
// oracle (tests/support): the registry's production targets must produce a
// byte-identical CampaignResult to the oracle across both cores, all three
// CampaignModes and any thread count — the production golden run (a chunk
// stream scored by mate::benign_masks and labelled by hafi::confined_masks)
// against the oracle's own (a scalar trace scored by benign_matrix, every
// point executed) — and checkpoints cut from the oracle's result must replay
// under the batch engine after a kill. Also pins down the lane-utilization
// accounting that feeds the --report=json counters and the campaign's
// refusal of incomplete targets and missing or misshapen golden runs.
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
  const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
  Campaign planner(t.runtime.target(), plan_cfg, golden.get());
  return run_scalar_campaign(t.oracle, cfg, planner.plan().points,
                             mates_for(t, cfg.mode));
}

/// Both shard shapes of the oracle-identity checks: `small` shards fit one
/// pass each, so no labels are computed; 126-point shards of `sample`
/// points have two passes of points to execute and are labelled.
void expect_matches_oracle(const Target& t, const CampaignConfig& small,
                           std::size_t sample) {
  CampaignConfig labelled = small;
  labelled.sample = sample;
  labelled.shard_size = 2 * kExperimentLanes;
  for (const CampaignConfig& base : {small, labelled}) {
    const bool labels = base.shard_size > kExperimentLanes;
    for (const CampaignMode mode :
         {CampaignMode::Baseline, CampaignMode::Pruned,
          CampaignMode::Validate}) {
      CampaignConfig cfg = base;
      cfg.mode = mode;
      const CampaignResult reference = oracle_result(t, cfg);
      // The pruning decisions, the labels and the SDC classification all
      // take part.
      EXPECT_GT(reference.sdc, 0u) << "mode=" << mode_name(mode);
      if (mode != CampaignMode::Baseline) {
        EXPECT_GT(reference.pruned, 0u) << "mode=" << mode_name(mode);
      }
      const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        cfg.threads = threads;
        std::size_t confined = 0;
        Campaign::ShardHooks hooks;
        hooks.progress = [&](const Campaign::ShardProgress& p) {
          confined += p.confined;
        };
        Campaign campaign(t.runtime.target(), cfg, golden.get(),
                          mates_for(t, mode));
        EXPECT_EQ(result_bytes(campaign.run(hooks)), result_bytes(reference))
            << "batch engine differs from the scalar oracle: mode="
            << mode_name(mode) << " threads=" << threads
            << " shard_size=" << cfg.shard_size;
        EXPECT_EQ(confined > 0, labels)
            << "mode=" << mode_name(mode) << " threads=" << threads
            << " shard_size=" << cfg.shard_size;
      }
    }
  }
}

TEST(CampaignBatch, AvrEnginesByteIdenticalAcrossModesAndThreads) {
  expect_matches_oracle(avr_target(), small_config(48, 300), 150);
}

TEST(CampaignBatch, Msp430EnginesByteIdenticalAcrossModesAndThreads) {
  // 350 cycles: within 250 the MSP430 fib run turns only about 1 % of
  // injections into SDCs, too few for a small sample to cover.
  expect_matches_oracle(msp430_target(), small_config(40, 350), 150);
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
  Campaign campaign(t.runtime.target(), cfg, golden.get(), &t.search.set);
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
  std::uint64_t pass_cycles = 0;
  std::size_t confined = 0;
};

/// Runs a Baseline campaign of `cfg` on `t`, checking every window's lane
/// accounting: of a window's E executed experiments, C were resolved by the
/// confinement labels, and the other E - C ran in ceil((E - C) / 63) passes
/// of 63 lane slots each, reported on one shard of the window. With no shard
/// resumed, window w holds shards [8w, 8w + 8).
LaneRun run_checking_lanes(const Target& t, const CampaignConfig& cfg) {
  struct Window {
    std::size_t executed = 0;        // experiments with `executed` set
    std::size_t confined = 0;
    std::size_t lane_executions = 0; // ShardProgress::executed, summed
    std::size_t dut_passes = 0;
    std::size_t lane_slots = 0;
    std::size_t lanes = 0;
    std::size_t reporting = 0; // shards that carry engine counts
  };
  LaneRun run;
  std::size_t lane_executions = 0;
  std::size_t retired = 0;
  std::map<std::size_t, std::size_t> executed; // per shard, from its result
  std::map<std::size_t, Window> windows;
  Campaign::ShardHooks hooks;
  hooks.store = [&](const ShardResult& shard) {
    for (const Experiment& e : shard.experiments) {
      executed[shard.shard] += e.executed ? 1 : 0;
    }
  };
  hooks.progress = [&](const Campaign::ShardProgress& p) {
    lane_executions += p.executed;
    run.confined += p.confined;
    run.dut_passes += p.dut_passes;
    run.pass_cycles += p.pass_cycles;
    retired += p.lanes_retired_early;
    EXPECT_EQ(p.executed + p.confined, executed[p.shard]);
    EXPECT_EQ(p.lane_slots, p.dut_passes * kExperimentLanes);
    Window& w = windows[p.shard / kWindowShards];
    w.executed += executed[p.shard];
    w.confined += p.confined;
    w.lane_executions += p.executed;
    w.dut_passes += p.dut_passes;
    w.lane_slots += p.lane_slots;
    w.lanes += p.lanes;
    w.reporting += p.dut_passes > 0 ? 1 : 0;
  };
  const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
  Campaign campaign(t.runtime.target(), cfg, golden.get());
  run.result = campaign.run(hooks);
  EXPECT_EQ(lane_executions + run.confined, run.result.executed);
  EXPECT_LE(retired, lane_executions);
  for (const auto& [index, w] : windows) {
    SCOPED_TRACE(::testing::Message() << "window " << index);
    EXPECT_EQ(w.dut_passes,
              (w.executed - w.confined + kExperimentLanes - 1) /
                  kExperimentLanes);
    EXPECT_EQ(w.lanes, w.lane_executions);
    EXPECT_LE(w.lane_executions, w.lane_slots); // lane utilization <= 1
    EXPECT_LE(w.reporting, 1u);
  }
  return run;
}

TEST(CampaignBatch, LaneUtilizationAccounting) {
  // Six 8-point shards make one window that fits one pass, so far fewer
  // passes than experiments, and no labels are computed for it.
  CampaignConfig cfg = small_config(48, 300);
  const LaneRun small = run_checking_lanes(avr_target(), cfg);
  EXPECT_LT(small.dut_passes, small.result.executed);
  EXPECT_EQ(small.confined, 0u);

  // One window of a 126-point and a 24-point shard, two 63-lane passes of
  // points and more, on both cores, byte-identical to the scalar oracle. The
  // labels resolve enough of it to fit two passes on the AVR (3 without
  // them) and one on the MSP430, pinned exactly, and each pass starts at its
  // first injection: sorted by injection cycle, the AVR's two passes
  // simulate 238 of their 500 cycles, the MSP430's one pass 238 of 250.
  cfg.run_cycles = 250;
  cfg.sample = 150;
  cfg.seed = 23;
  cfg.shard_size = 2 * kExperimentLanes;
  struct Pin {
    const Target* target;
    std::size_t confined;
    std::size_t dut_passes;
    std::uint64_t pass_cycles;
  };
  for (const Pin& pin : {Pin{&avr_target(), 86, 2, 238},
                         Pin{&msp430_target(), 106, 1, 238}}) {
    const Target& t = *pin.target;
    SCOPED_TRACE(t.runtime.netlist->name());
    const LaneRun run = run_checking_lanes(t, cfg);
    EXPECT_EQ(run.confined, pin.confined);
    EXPECT_EQ(run.dut_passes, pin.dut_passes);
    EXPECT_EQ(run.pass_cycles, pin.pass_cycles);
    EXPECT_EQ(result_bytes(run.result), result_bytes(oracle_result(t, cfg)));
  }
}

TEST(CampaignBatch, ResumedWindowsMatchTheOracle) {
  // 17 shards of 12 points: unresumed, windows of 8 shards (96 points) are
  // labelled and start their passes from snapshots. With shards 0, 3 and 9
  // checkpointed (cut from the oracle's result) the pending shards form
  // other windows, which must change no byte of the result.
  const Target& t = avr_target();
  for (const CampaignMode mode :
       {CampaignMode::Baseline, CampaignMode::Pruned}) {
    CampaignConfig cfg = small_config(200, 300);
    cfg.shard_size = 12;
    cfg.mode = mode;
    const CampaignResult expected = oracle_result(t, cfg);
    const auto golden = pipeline::golden_run(t.runtime, cfg.run_cycles);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "mode=" << mode_name(mode) << " threads=" << threads);
      cfg.threads = threads;
      Campaign campaign(t.runtime.target(), cfg, golden.get(),
                        mates_for(t, mode));
      const CampaignPlan& plan = campaign.plan();
      ASSERT_EQ(plan.num_shards(), 17u);
      std::map<std::size_t, ShardResult> persisted;
      for (const std::size_t s : {0u, 3u, 9u}) {
        ShardResult shard;
        shard.shard = static_cast<std::uint32_t>(s);
        shard.experiments.assign(
            expected.experiments.begin() +
                static_cast<std::ptrdiff_t>(plan.shard_begin(s)),
            expected.experiments.begin() +
                static_cast<std::ptrdiff_t>(plan.shard_end(s)));
        persisted.emplace(s, std::move(shard));
      }
      std::size_t resumed = 0;
      std::size_t confined = 0;
      std::size_t stored = 0;
      Campaign::ShardHooks hooks;
      hooks.load = [&](std::size_t index) -> std::optional<ShardResult> {
        const auto it = persisted.find(index);
        if (it == persisted.end()) return std::nullopt;
        return it->second;
      };
      hooks.store = [&](const ShardResult& shard) {
        EXPECT_EQ(persisted.count(shard.shard), 0u);
        ++stored;
      };
      hooks.progress = [&](const Campaign::ShardProgress& p) {
        resumed += p.resumed ? 1 : 0;
        confined += p.confined;
      };
      EXPECT_EQ(result_bytes(campaign.run(hooks)), result_bytes(expected));
      EXPECT_EQ(resumed, persisted.size());
      EXPECT_EQ(stored, plan.num_shards() - persisted.size());
      EXPECT_GT(confined, 0u);
    }
  }
}

TEST(CampaignBatch, RejectsTargetWithoutBatchFactory) {
  CampaignTarget target = avr_target().runtime.target();
  target.batch_factory = nullptr;
  const auto golden = pipeline::golden_run(avr_target().runtime, 200);
  EXPECT_THROW(Campaign(target, small_config(24, 200), golden.get()), Error);
}

TEST(CampaignBatch, EveryModeNeedsAGoldenRun) {
  const Target& t = avr_target();
  CampaignConfig cfg = small_config(24, 200);
  for (const CampaignMode mode :
       {CampaignMode::Baseline, CampaignMode::Pruned,
        CampaignMode::Validate}) {
    cfg.mode = mode;
    try {
      Campaign(t.runtime.target(), cfg, nullptr, mates_for(t, mode));
      ADD_FAILURE() << "accepted no golden run: mode=" << mode_name(mode);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("golden run"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignBatch, RejectsGoldenRunOfTheWrongShape) {
  // In every mode, the golden run must cover exactly run_cycles cycles of
  // every netlist wire; the shape is checked before anything streams.
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
  const std::size_t wires = t.runtime.netlist->num_wires();
  for (const CampaignMode mode :
       {CampaignMode::Baseline, CampaignMode::Pruned}) {
    cfg.mode = mode;
    for (const auto& [w, c] : {std::pair{wires, std::size_t{199}},
                               std::pair{wires, std::size_t{201}},
                               std::pair{wires - 1, std::size_t{200}},
                               std::pair{wires + 1, std::size_t{200}}}) {
      Shape golden;
      golden.wires = w;
      golden.cycles = c;
      try {
        Campaign(t.runtime.target(), cfg, &golden, mates_for(t, mode));
        ADD_FAILURE() << "accepted a " << c << "-cycle golden run of " << w
                      << " wires: mode=" << mode_name(mode);
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("golden run"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(golden.streams, 0u);
    }
  }
}

} // namespace
} // namespace ripple::hafi
