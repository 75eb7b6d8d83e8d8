// Microbenchmark: 64-lane batch DUT engine throughput, cross-checked against
// the one-boot-per-experiment scalar oracle (tests/support).
//
// Runs the same baseline fault-injection campaign on each core's registered
// target (CoreRegistry) and reports wall time, retired injections/sec, DUT
// passes, lane utilization and early retirements, next to the serial
// scalar oracle's wall time. One batch pass evaluates the netlist word-wide,
// retiring up to 63 experiments plus the golden lane per gate-level sweep.
//
// Every run checks that the serialized CampaignResult is byte-identical to
// the oracle's. With --check it also asserts the lane accounting per shard
// (dut_passes == ceil(executed / 63), lane_slots == 63 x dut_passes) and
// exits non-zero on any failure; walls are printed, never gated on. The
// dut_bench_smoke ctest target runs `--smoke --check`.
#include "bench/common.hpp"

#include <cstdio>

#include "hafi/campaign.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/registry.hpp"
#include "support/scalar_campaign.hpp"
#include "util/serialize.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace ripple;
using namespace ripple::bench;

struct EngineRun {
  double seconds = 0.0;
  std::size_t executed = 0;
  std::size_t dut_passes = 0;
  std::size_t lane_slots = 0;
  std::size_t lanes_retired_early = 0;
  std::size_t bad_shards = 0; // shards whose lane accounting is off
  std::vector<std::uint8_t> bytes;

  [[nodiscard]] double inj_per_sec() const {
    return static_cast<double>(executed) / std::max(seconds, 1e-9);
  }
  [[nodiscard]] double utilization() const {
    return lane_slots > 0 ? static_cast<double>(executed) /
                                static_cast<double>(lane_slots)
                          : 1.0;
  }
};

std::vector<std::uint8_t> result_bytes(const hafi::CampaignResult& result) {
  ByteWriter w;
  pipeline::write_campaign_result(w, result);
  return w.take();
}

EngineRun run_engine(const hafi::CampaignTarget& target,
                     const hafi::CampaignConfig& cfg, std::size_t reps) {
  EngineRun r;
  Stopwatch watch;
  for (std::size_t i = 0; i < reps; ++i) {
    hafi::Campaign campaign(target, cfg);
    hafi::Campaign::ShardHooks hooks;
    const bool record = i == 0; // stats are identical across reps
    hooks.progress = [&](const hafi::Campaign::ShardProgress& p) {
      if (!record) return;
      const std::size_t passes =
          (p.executed + hafi::kExperimentLanes - 1) / hafi::kExperimentLanes;
      if (p.dut_passes != passes ||
          p.lane_slots != hafi::kExperimentLanes * p.dut_passes) {
        ++r.bad_shards;
      }
      r.dut_passes += p.dut_passes;
      r.lane_slots += p.lane_slots;
      r.lanes_retired_early += p.lanes_retired_early;
    };
    const hafi::CampaignResult result = campaign.run(hooks);
    if (record) {
      r.executed = result.executed;
      r.bytes = result_bytes(result);
    }
  }
  r.seconds = watch.seconds() / static_cast<double>(reps);
  return r;
}

std::string fmt_rate(double per_sec) {
  if (per_sec >= 1e6) return strprintf("%.2f M/s", per_sec / 1e6);
  if (per_sec >= 1e3) return strprintf("%.2f k/s", per_sec / 1e3);
  return strprintf("%.1f /s", per_sec);
}

} // namespace

int main(int argc, char** argv) {
  std::string core = "both";
  std::size_t reps = 1;
  bool check = false;
  bool smoke = false;
  Harness h(argc, argv, "dut_throughput",
            "64-lane batch DUT engine throughput vs the scalar oracle",
            [&](OptionParser& parser) {
              parser.add_value("core",
                               "core to benchmark: avr, msp430 or both",
                               &core);
              parser.add_value("reps", "repetitions of the batch campaign",
                               &reps);
              parser.add_flag("check",
                              "exit non-zero if the per-shard lane "
                              "accounting is off",
                              &check);
              parser.add_flag(
                  "smoke",
                  "trimmed setup for CI (small sample, short runs)", &smoke);
            });
  if (core != "avr" && core != "msp430" && core != "both") {
    std::fprintf(stderr, "dut_throughput: unknown --core '%s'\n",
                 core.c_str());
    return 2;
  }
  if (reps == 0) reps = 1;

  hafi::CampaignConfig cfg;
  cfg.run_cycles = smoke ? 250 : 800;
  cfg.sample = smoke ? 150 : 504; // 504 = 8 full 63-lane passes
  cfg.seed = 23;
  cfg.threads = h.options().threads;
  cfg.shard_size = 2 * hafi::kExperimentLanes; // two batch passes per shard

  TablePrinter t({"dut_throughput", "batch", "scalar oracle", "speedup",
                  "passes", "lane util", "retired early"});
  bool failed = false;

  for (const std::string name : {"avr", "msp430"}) {
    if (core != "both" && core != name) continue;
    const pipeline::CoreRuntime target =
        pipeline::CoreRegistry::global().make(name, "fib");

    h.progress("dut_throughput: %s fib, %zu injections x %zu cycles, "
               "%zu reps...",
               name.c_str(), cfg.sample, cfg.run_cycles, reps);
    const EngineRun batch = run_engine(target.target(), cfg, reps);
    hafi::Campaign planner(target.target(), cfg);
    Stopwatch oracle_watch;
    const hafi::CampaignResult oracle = hafi::run_scalar_campaign(
        hafi::make_oracle_factory(name, "fib"), cfg, planner.plan().points);
    const double oracle_seconds = oracle_watch.seconds();

    if (batch.bytes != result_bytes(oracle)) {
      std::fprintf(stderr,
                   "dut_throughput: ENGINE MISMATCH on %s — the batch "
                   "campaign differs from the scalar oracle\n",
                   name.c_str());
      return 1;
    }
    if (batch.bad_shards > 0) {
      std::fprintf(stderr,
                   "dut_throughput: %s: %zu shard(s) with dut_passes != "
                   "ceil(executed / 63) or lane_slots != 63 x dut_passes\n",
                   name.c_str(), batch.bad_shards);
      failed = true;
    }

    t.add_row({name + " fib",
               strprintf("%.3f s (%s)", batch.seconds,
                         fmt_rate(batch.inj_per_sec()).c_str()),
               strprintf("%.3f s", oracle_seconds),
               strprintf("%.1fx",
                         oracle_seconds / std::max(batch.seconds, 1e-9)),
               fmt_count(batch.dut_passes),
               strprintf("%.1f %%", 100.0 * batch.utilization()),
               fmt_count(batch.lanes_retired_early)});
  }
  h.emit(t);

  if (check && failed) {
    std::fprintf(stderr, "dut_throughput: --check FAILED\n");
    return 1;
  }
  return 0;
}
