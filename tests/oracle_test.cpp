// The exact one-cycle masking oracle, hafi::masked_masks, against the
// brute-force reference on the per-bit ReferenceSimulator
// (sim::reference_masked_masks): toy circuits pin the predicate, random
// circuits and both cores x {fib, conv, crc} compare every (flop, cycle) bit
// for bit. Sanitizer builds (RIPPLE_SANITIZED) shorten the core runs.
#include <gtest/gtest.h>

#include "hafi/confine.hpp"
#include "netlist/random.hpp"
#include "pipeline/registry.hpp"
#include "sim/stream.hpp"
#include "support/golden_run.hpp"
#include "support/masking.hpp"
#include "support/reference_sim.hpp"
#include "support/row_major.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace ripple::hafi {
namespace {

using netlist::Kind;
using netlist::Netlist;

#if defined(RIPPLE_SANITIZED)
constexpr std::size_t kCoreCycles = 64;
#else
constexpr std::size_t kCoreCycles = 256;
#endif

/// Per-group comparison with the reference, naming the first bad cycle.
void expect_matches_reference(const Netlist& n, const sim::Trace& trace,
                              const std::vector<BitVec>& masks,
                              const std::vector<FlopGroup>& groups) {
  const std::vector<BitVec> expected =
      sim::reference_masked_masks(n, trace, groups);
  ASSERT_EQ(masks.size(), expected.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(masks[g], expected[g])
        << "flop " << n.flop(groups[g][0]).name << " differs in cycle "
        << masks[g].first_difference(expected[g]);
  }
}

/// masked_masks of `groups` over `trace`, checked against the reference.
std::vector<BitVec> masked(const Netlist& n, const sim::Trace& trace,
                           const std::vector<FlopGroup>& groups) {
  std::vector<BitVec> masks = masked_masks_of(n, trace, groups);
  expect_matches_reference(n, trace, masks, groups);
  return masks;
}

/// Settle the reference simulator and append its values as a trace row.
void append_settled(sim::ReferenceSimulator& ref, sim::Trace& trace) {
  ref.eval();
  trace.append_row(ref.values());
}

TEST(Oracle, GatedFlopMaskedWhenGateCloses) {
  // q feeds an AND2 whose other input g gates it; the AND feeds flop t.
  // When g == 0 a fault in q is masked; when g == 1 it propagates.
  Netlist n;
  const WireId g = n.add_input("g");
  const FlopId q = n.add_flop("q", false);
  const FlopId t = n.add_flop("t", false);
  const WireId a = n.add_gate_new(Kind::And2, {n.flop(q).q, g}, "a");
  n.connect_flop(t, a);
  n.connect_flop(q, n.add_gate_new(Kind::Buf, {g}, "qd"));
  n.mark_output(n.flop(t).q);
  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  for (const bool open : {false, true}) {
    ref.set_input(g, open);
    append_settled(ref, trace);
  }
  const BitVec mask = masked(n, trace, {{q}})[0];
  EXPECT_TRUE(mask.get(0));
  EXPECT_FALSE(mask.get(1));
}

TEST(Oracle, HoldRegisterNeverMasked) {
  Netlist n;
  const FlopId f = n.add_flop("hold", false);
  n.connect_flop(f, n.flop(f).q); // D = Q
  n.mark_output(n.flop(f).q);
  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  append_settled(ref, trace);
  EXPECT_FALSE(masked(n, trace, {{f}})[0].get(0));
}

TEST(Oracle, OverwrittenUnobservedFlopAlwaysMasked) {
  // Flop q drives nothing; its next value comes from an input.
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  n.mark_output(in);
  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  ref.set_input(in, true);
  append_settled(ref, trace);
  EXPECT_TRUE(masked(n, trace, {{q}})[0].get(0));
}

TEST(Oracle, PrimaryOutputFlopNeverMasked) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  n.mark_output(n.flop(q).q);
  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  append_settled(ref, trace);
  EXPECT_FALSE(masked(n, trace, {{q}})[0].get(0));
}

TEST(Oracle, XorConeNeverMasks) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  const FlopId t = n.add_flop("t", false);
  n.connect_flop(t, n.add_gate_new(Kind::Xor2, {n.flop(q).q, in}, "x"));
  n.connect_flop(q, in);
  n.mark_output(n.flop(t).q);
  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  for (const bool v : {false, true}) {
    ref.set_input(in, v);
    append_settled(ref, trace);
  }
  EXPECT_EQ(masked(n, trace, {{q}})[0].popcount(), 0u);
}

// Property: the kernel's Masked label agrees with whole-circuit
// resimulation on the reference simulator, on random circuits and random
// stimuli over two 64-cycle blocks (the second one partial).
class OracleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleFuzz, AgreesWithFullResimulation) {
  Rng rng(GetParam() + 1000);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 60;
  spec.num_flops = 8;
  spec.num_inputs = 5;
  const Netlist n = random_circuit(spec, rng);
  const sim::Trace trace = sim::reference_random_trace(n, rng, 100);
  masked(n, trace, single_flops(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleFuzz,
                         ::testing::Range<std::uint64_t>(0, 15));

TEST(Oracle, MatchesReferenceOnBothCores) {
  // Every flop of both cores on the golden runs the campaigns label.
  ThreadPool pool(4);
  const ShardExecutor execute =
      [&pool](std::size_t count,
              const std::function<void(std::size_t)>& task) {
        pool.parallel_for_index(count, task, 1);
      };
  for (const char* core : {"avr", "msp430"}) {
    for (const char* workload : {"fib", "conv", "crc"}) {
      SCOPED_TRACE(strprintf("%s %s", core, workload));
      const pipeline::CoreRuntime rt =
          pipeline::CoreRegistry::global().make(core, workload);
      const Netlist& n = *rt.netlist;
      const auto golden = pipeline::golden_run(rt, kCoreCycles);
      sim::Trace trace(n);
      sim::UntransposingSink rows(trace);
      golden->stream(rows);
      const std::vector<FlopGroup> flops = single_flops(n);
      const std::vector<BitVec> masks =
          masked_masks(n, *golden, flops, execute);
      expect_matches_reference(n, trace, masks, flops);
      std::size_t points = 0;
      for (const BitVec& m : masks) points += m.popcount();
      EXPECT_GT(points, 0u);
    }
  }
}

} // namespace
} // namespace ripple::hafi
