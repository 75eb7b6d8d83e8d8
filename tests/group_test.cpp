#include <gtest/gtest.h>

#include <algorithm>

#include "hafi/confine.hpp"
#include "mate/example.hpp"
#include "mate/search.hpp"
#include "netlist/random.hpp"
#include "support/masking.hpp"
#include "support/reference_sim.hpp"

namespace ripple::mate {
namespace {

using netlist::Kind;
using netlist::Netlist;

TEST(GroupMates, Figure1PairAB) {
  // The pair {a, b} flips together: neither (!b) nor (!a) is usable (both
  // wires are inside the joint cone), but the deeper (!g) at gate D still
  // blocks the single escape route through k.
  const Figure1Circuit fig = build_figure1_circuit();
  const WireId group[2] = {fig.a, fig.b};
  const GroupOutcome out = find_group_mates(fig.netlist, group, {});
  ASSERT_EQ(out.status, WireStatus::Found);
  ASSERT_EQ(out.mates.size(), 1u);
  EXPECT_EQ(out.mates[0], Cube({Literal{fig.g, false}}));
}

TEST(GroupMates, SingletonMatchesSingleWireSearch) {
  const Figure1Circuit fig = build_figure1_circuit();
  const WireId group[1] = {fig.d};
  const GroupOutcome g = find_group_mates(fig.netlist, group, {});
  const SearchResult s = find_mates(fig.netlist, {fig.d}, {});
  ASSERT_EQ(g.status, WireStatus::Found);
  ASSERT_EQ(g.mates.size(), 1u);
  EXPECT_EQ(g.mates[0], s.set.mates[0].cube);
}

TEST(GroupMates, UnmaskableMemberMakesGroupUnmaskable) {
  const Figure1Circuit fig = build_figure1_circuit();
  const WireId group[2] = {fig.d, fig.e};
  const GroupOutcome out = find_group_mates(fig.netlist, group, {});
  EXPECT_EQ(out.status, WireStatus::Unmaskable);
}

TEST(GroupOracle, PairOnGatedRegisters) {
  // Two registers, both gated by the same enable: the pair fault is masked
  // exactly when en == 0.
  Netlist n;
  const WireId en = n.add_input("en");
  const WireId in = n.add_input("in");
  const FlopId fa = n.add_flop("fa", false);
  const FlopId fb = n.add_flop("fb", false);
  const FlopId ta = n.add_flop("ta", false);
  const FlopId tb = n.add_flop("tb", false);
  n.connect_flop(ta, n.add_gate_new(Kind::And2, {n.flop(fa).q, en}, "ka"));
  n.connect_flop(tb, n.add_gate_new(Kind::And2, {n.flop(fb).q, en}, "kb"));
  n.connect_flop(fa, in);
  n.connect_flop(fb, in);
  n.mark_output(n.flop(ta).q);
  n.mark_output(n.flop(tb).q);

  sim::ReferenceSimulator ref(n);
  sim::Trace trace(n);
  for (const bool e : {false, true}) {
    ref.set_input(en, e);
    ref.set_input(in, true);
    ref.eval();
    trace.append_row(ref.values());
  }
  const std::vector<hafi::FlopGroup> pair = {{fa, fb}};
  const BitVec mask = hafi::masked_masks_of(n, trace, pair)[0];
  EXPECT_TRUE(mask.get(0));
  EXPECT_FALSE(mask.get(1));
  EXPECT_EQ(sim::reference_masked_masks(n, trace, pair)[0], mask);

  const WireId wires[2] = {n.flop(fa).q, n.flop(fb).q};
  const GroupOutcome out = find_group_mates(n, wires, {});
  ASSERT_EQ(out.status, WireStatus::Found);
  EXPECT_EQ(out.mates[0], Cube({Literal{en, false}}));
}

class GroupFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupFuzz, OracleAgreesWithFullResimulation) {
  // Every pair of flops, flipped together, over two 64-cycle blocks (the
  // second one partial): the kernel's Masked label against whole-circuit
  // resimulation on the reference simulator.
  Rng rng(GetParam() + 900);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 60;
  spec.num_flops = 10;
  const Netlist n = random_circuit(spec, rng);
  const sim::Trace trace = sim::reference_random_trace(n, rng, 100);
  std::vector<hafi::FlopGroup> pairs;
  for (const FlopId a : n.all_flops()) {
    for (const FlopId b : n.all_flops()) {
      if (a < b) pairs.push_back({a, b});
    }
  }
  const std::vector<BitVec> masks = hafi::masked_masks_of(n, trace, pairs);
  const std::vector<BitVec> expected =
      sim::reference_masked_masks(n, trace, pairs);
  ASSERT_EQ(masks.size(), pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(masks[p], expected[p])
        << "pair " << n.flop(pairs[p][0]).name << ", "
        << n.flop(pairs[p][1]).name << " differs in cycle "
        << masks[p].first_difference(expected[p]);
  }
}

TEST_P(GroupFuzz, GroupMatesAreSound) {
  Rng rng(GetParam() * 31 + 7);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 60;
  spec.num_flops = 10;
  spec.allow_xor = (GetParam() % 2) == 0;
  const Netlist n = random_circuit(spec, rng);

  // Sample a handful of pairs and search group MATEs.
  struct PairMates {
    FlopId flops[2];
    std::vector<Cube> cubes;
  };
  std::vector<PairMates> pairs;
  for (int draw = 0; draw < 8; ++draw) {
    const auto a = static_cast<FlopId::value_type>(rng.next_below(10));
    const auto b = static_cast<FlopId::value_type>(rng.next_below(10));
    if (a == b) continue;
    const WireId wires[2] = {n.flop(FlopId{a}).q, n.flop(FlopId{b}).q};
    const GroupOutcome out = find_group_mates(n, wires, {});
    if (out.status == WireStatus::Found) {
      pairs.push_back(PairMates{{FlopId{a}, FlopId{b}}, out.mates});
    }
  }

  // MATE-triggered => Masked: the pair flipped in a triggering cycle
  // changes no D wire and no primary output.
  const sim::Trace trace = sim::reference_random_trace(n, rng, 30);
  std::vector<hafi::FlopGroup> groups;
  for (const PairMates& p : pairs) groups.push_back({p.flops[0], p.flops[1]});
  const std::vector<BitVec> masked = hafi::masked_masks_of(n, trace, groups);
  std::size_t triggers = 0;
  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    const BitVec& values = trace.cycle_values(cycle);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (const Cube& cube : pairs[i].cubes) {
        if (!cube.eval(values)) continue;
        ++triggers;
        EXPECT_TRUE(masked[i].get(cycle))
            << "pair MATE " << cube.to_string(n) << " cycle " << cycle;
      }
    }
  }
  // A search that finds no triggering pair MATE would check nothing.
  EXPECT_GT(triggers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupFuzz,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace ripple::mate
