// The confinement labels (hafi/confine.hpp) against execution. A toy
// circuit pins the three labels and the backward fold bit for bit; every
// (flop, cycle) of a short run on both cores x {fib, conv, sort, crc, irq}
// executes through the batch DUT directly, and every confined point must
// end Benign; and the points the full flop MATE sets prune are Masked
// (masked within one cycle), hence confined.
// Sanitizer builds (RIPPLE_SANITIZED) shorten the runs.
#include <gtest/gtest.h>

#include <cstdio>

#include "hafi/confine.hpp"
#include "mate/search.hpp"
#include "mate/stream.hpp"
#include "pipeline/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"
#include "support/golden_run.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace ripple::hafi {
namespace {

#if defined(RIPPLE_SANITIZED)
constexpr std::size_t kExhaustiveCycles = 64;
constexpr std::size_t kMateCycles = 256;
#else
constexpr std::size_t kExhaustiveCycles = 128;
constexpr std::size_t kMateCycles = 1000;
#endif

constexpr const char* kCores[] = {"avr", "msp430"};

ShardExecutor executor_of(ThreadPool& pool) {
  return [&pool](std::size_t n, const std::function<void(std::size_t)>& task) {
    pool.parallel_for_index(n, task, 1);
  };
}

TEST(Confine, ToyCircuitLabelsAndFold) {
  // Inputs x (1 in cycles 10 and 70) and y (1 in cycle 50) over 100 cycles,
  // streamed in 64-cycle chunks. Per flop, the SEUs the labels confine:
  //   hold  D = hold, read by no one: Held every cycle, so all of them;
  //   gone  D = x, read by no one: Masked every cycle, so all of them;
  //   seen  drives the primary output "seen_out": Escaped, so none;
  //   fuse  D = fuse, output fuse & x: Escaped at 10 and 70, Held
  //         elsewhere, so the Held run to the end after 70: t = 71..99;
  //   chain D = chain & !x, output chain & y: Masked at 10 and 70, Escaped
  //         at 50, Held elsewhere, so all but t = 11..50.
  netlist::Netlist n;
  const WireId x = n.add_input("x");
  const WireId y = n.add_input("y");
  const FlopId hold = n.add_flop("hold");
  const FlopId gone = n.add_flop("gone");
  const FlopId seen = n.add_flop("seen");
  const FlopId fuse = n.add_flop("fuse");
  const FlopId chain = n.add_flop("chain");
  n.connect_flop(hold, n.flop(hold).q);
  n.connect_flop(gone, x);
  n.connect_flop(seen, x);
  n.mark_output(n.add_gate_new(netlist::Kind::Buf, {n.flop(seen).q},
                               "seen_out"));
  n.connect_flop(fuse, n.flop(fuse).q);
  n.mark_output(n.add_gate_new(netlist::Kind::And2, {n.flop(fuse).q, x},
                               "fuse_out"));
  const WireId not_x = n.add_gate_new(netlist::Kind::Inv, {x}, "not_x");
  n.connect_flop(chain, n.add_gate_new(netlist::Kind::And2,
                                       {n.flop(chain).q, not_x}, "chain_d"));
  n.mark_output(n.add_gate_new(netlist::Kind::And2, {n.flop(chain).q, y},
                               "chain_out"));
  n.check();

  constexpr std::size_t kCycles = 100;
  sim::Simulator sim(n);
  sim::Trace trace(n);
  for (std::size_t c = 0; c < kCycles; ++c) {
    sim.set_input(x, c == 10 || c == 70);
    sim.set_input(y, c == 50);
    sim.eval();
    trace.append_row(sim.values());
    sim.latch();
  }
  const sim::TransposedTrace transposed(trace);
  sim::TransposedTraceSource source(transposed, 64);
  const std::vector<BitVec> masks = confined_masks(n, source);
  ASSERT_EQ(masks.size(), n.num_flops());

  const auto expected = [&](FlopId f, std::size_t t) {
    if (f == hold || f == gone) return true;
    if (f == seen) return false;
    if (f == fuse) return t > 70;
    return t <= 10 || t > 50;
  };
  for (const FlopId f : n.all_flops()) {
    ASSERT_EQ(masks[f.index()].size(), kCycles);
    for (std::size_t t = 0; t < kCycles; ++t) {
      EXPECT_EQ(masks[f.index()].get(t), expected(f, t))
          << n.flop(f).name << " cycle " << t;
    }
  }
  EXPECT_EQ(masks[fuse.index()].popcount(), 29u);
  EXPECT_EQ(masks[chain.index()].popcount(), 60u);

  // The fan-out never changes the masks.
  ThreadPool pool(3);
  EXPECT_EQ(confined_masks(n, source, executor_of(pool)), masks);
}

TEST(Confine, ConfinedPointsExecuteToBenign) {
  // Every (flop, cycle) of each run, 63 to a pass, through BatchDut::run.
  // The reach lines on stdout are EXPERIMENTS.md's reach table.
  ThreadPool pool(4);
  const ShardExecutor execute = executor_of(pool);
  for (const char* core : kCores) {
    for (const char* workload : {"fib", "conv", "sort", "crc", "irq"}) {
      SCOPED_TRACE(strprintf("%s %s", core, workload));
      const pipeline::CoreRuntime rt =
          pipeline::CoreRegistry::global().make(core, workload);
      const auto golden = pipeline::golden_run(rt, kExhaustiveCycles);
      const std::vector<BitVec> masks =
          confined_masks(*rt.netlist, *golden, execute);

      std::vector<InjectionPoint> points;
      for (const FlopId f : rt.netlist->all_flops()) {
        for (std::size_t c = 0; c < kExhaustiveCycles; ++c) {
          points.push_back(InjectionPoint{f, c});
        }
      }
      const std::size_t passes =
          (points.size() + kExperimentLanes - 1) / kExperimentLanes;
      std::vector<Outcome> outcomes(points.size());
      // One DUT per task, each running a contiguous run of passes.
      constexpr std::size_t kTasks = 16;
      pool.parallel_for_index(kTasks, [&](std::size_t task) {
        const std::unique_ptr<BatchDut> dut = rt.batch_factory();
        for (std::size_t p = task; p < passes; p += kTasks) {
          const std::size_t begin = p * kExperimentLanes;
          const std::size_t end =
              std::min(points.size(), begin + kExperimentLanes);
          const std::vector<Outcome> out = dut->run(
              std::span(points).subspan(begin, end - begin),
              kExhaustiveCycles);
          std::copy(out.begin(), out.end(), outcomes.begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    begin));
        }
      }, 1);

      std::size_t confined = 0;
      std::size_t benign = 0;
      std::size_t violations = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        const bool is_benign = outcomes[i] == Outcome::Benign;
        benign += is_benign ? 1 : 0;
        if (!masks[points[i].flop.index()].get(points[i].cycle)) continue;
        ++confined;
        if (!is_benign && ++violations <= 5) {
          ADD_FAILURE() << "confined point flop "
                        << rt.netlist->flop(points[i].flop).name
                        << ", cycle " << points[i].cycle
                        << " executed to a non-Benign outcome";
        }
      }
      EXPECT_EQ(violations, 0u);
      EXPECT_GT(confined, points.size() / 4);
      std::printf("reach %s %s, %zu cycles: %zu points, %zu confined "
                  "(%.1f %%), %zu benign (%.1f %%)\n",
                  core, workload, kExhaustiveCycles, points.size(), confined,
                  100.0 * static_cast<double>(confined) /
                      static_cast<double>(points.size()),
                  benign,
                  100.0 * static_cast<double>(benign) /
                      static_cast<double>(points.size()));
    }
  }
}

TEST(Confine, FullFlopMatePruningIsConfined) {
  // A MATE-pruned SEU is masked within one cycle, which is a Masked label:
  // on both cores the full flop MATE set's benign masks are a subset of the
  // exact one-cycle oracle's masks, and so of the confined masks.
  ThreadPool pool(4);
  const ShardExecutor execute = executor_of(pool);
  for (const char* core : kCores) {
    const pipeline::CoreRuntime fib =
        pipeline::CoreRegistry::global().make(core, "fib");
    const netlist::Netlist& n = *fib.netlist;
    mate::SearchParams sp;
    sp.threads = 4;
    const mate::SearchResult search =
        mate::find_mates(n, mate::all_flop_wires(n), sp);
    for (const char* workload : {"fib", "conv", "crc"}) {
      SCOPED_TRACE(strprintf("%s %s", core, workload));
      const auto golden = pipeline::golden_run(
          pipeline::CoreRegistry::global().make(core, workload), kMateCycles);
      const std::vector<BitVec> benign =
          mate::benign_masks(search.set, *golden);
      const std::vector<BitVec> masked =
          masked_masks(n, *golden, single_flops(n), execute);
      const std::vector<BitVec> confined =
          confined_masks(n, *golden, execute);
      std::size_t pruned = 0;
      for (std::size_t i = 0; i < search.set.faulty_wires.size(); ++i) {
        const FlopId f = n.wire(search.set.faulty_wires[i]).driver_flop;
        pruned += benign[i].popcount();
        EXPECT_TRUE(benign[i].is_subset_of(masked[f.index()]))
            << n.flop(f).name << " pruned but not Masked in cycle "
            << BitVec(benign[i]).and_not(masked[f.index()])
                   .first_difference(BitVec(kMateCycles));
        EXPECT_TRUE(benign[i].is_subset_of(confined[f.index()]))
            << n.flop(f).name << " pruned in cycle "
            << BitVec(benign[i]).and_not(confined[f.index()])
                   .first_difference(BitVec(kMateCycles));
      }
      EXPECT_GT(pruned, 0u);
    }
  }
}

} // namespace
} // namespace ripple::hafi
