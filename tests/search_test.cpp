#include <gtest/gtest.h>

#include <algorithm>

#include "cores/avr/core.hpp"
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

SearchParams quick_params() {
  SearchParams p;
  p.threads = 2;
  return p;
}

const WireOutcome& outcome_of(const SearchResult& r, WireId w) {
  for (const WireOutcome& o : r.outcomes) {
    if (o.wire == w) return o;
  }
  throw Error("no outcome for wire");
}

std::vector<Cube> cubes_for(const SearchResult& r, WireId w) {
  std::vector<Cube> cubes;
  for (const Mate& m : r.set.mates) {
    if (std::find(m.masked_wires.begin(), m.masked_wires.end(), w) !=
        m.masked_wires.end()) {
      cubes.push_back(m.cube);
    }
  }
  return cubes;
}

TEST(MateSearch, Figure1FindsPaperMates) {
  const Figure1Circuit fig = build_figure1_circuit();
  const SearchResult r = find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, quick_params());

  // d: exactly the border MATE (!f & h) of the paper.
  const auto d_cubes = cubes_for(r, fig.d);
  ASSERT_EQ(d_cubes.size(), 1u);
  EXPECT_EQ(d_cubes[0], Cube({Literal{fig.f, false}, Literal{fig.h, true}}));

  // a: (!b) (paper Figure 1b) plus the deeper (!g) at gate D.
  const auto a_cubes = cubes_for(r, fig.a);
  EXPECT_TRUE(std::find(a_cubes.begin(), a_cubes.end(),
                        Cube({Literal{fig.b, false}})) != a_cubes.end());
  EXPECT_TRUE(std::find(a_cubes.begin(), a_cubes.end(),
                        Cube({Literal{fig.g, false}})) != a_cubes.end());

  // b: (!a) symmetric.
  const auto b_cubes = cubes_for(r, fig.b);
  EXPECT_TRUE(std::find(b_cubes.begin(), b_cubes.end(),
                        Cube({Literal{fig.a, false}})) != b_cubes.end());

  // c and e: unmaskable via the XNOR path [C] (paper: "for the input e,
  // there exists no MATE").
  EXPECT_EQ(outcome_of(r, fig.c).status, WireStatus::Unmaskable);
  EXPECT_EQ(outcome_of(r, fig.e).status, WireStatus::Unmaskable);
  EXPECT_EQ(r.unmaskable_wires, 2u);
}

TEST(MateSearch, Figure1OutcomeBookkeeping) {
  const Figure1Circuit fig = build_figure1_circuit();
  const SearchResult r =
      find_mates(fig.netlist, {fig.d}, quick_params());
  const WireOutcome& o = outcome_of(r, fig.d);
  EXPECT_EQ(o.status, WireStatus::Found);
  EXPECT_EQ(o.cone_gates, 3u);
  EXPECT_EQ(o.border_wires, 3u);
  EXPECT_EQ(o.num_paths, 2u);
  EXPECT_GE(o.candidates_tried, 1u);
  EXPECT_EQ(r.total_mates, 1u);
}

TEST(MateSearch, SharedMateMergesAcrossWires) {
  // Two flops gated by the same AND-side wire: one MATE masks both faults.
  Netlist n;
  const WireId en = n.add_input("en");
  const FlopId fa = n.add_flop("fa", false);
  const FlopId fb = n.add_flop("fb", false);
  const FlopId ta = n.add_flop("ta", false);
  const FlopId tb = n.add_flop("tb", false);
  n.connect_flop(ta, n.add_gate_new(Kind::And2, {n.flop(fa).q, en}, "ka"));
  n.connect_flop(tb, n.add_gate_new(Kind::And2, {n.flop(fb).q, en}, "kb"));
  n.connect_flop(fa, en);
  n.connect_flop(fb, en);
  n.mark_output(n.flop(ta).q);
  n.mark_output(n.flop(tb).q);

  const SearchResult r =
      find_mates(n, {n.flop(fa).q, n.flop(fb).q}, quick_params());
  ASSERT_EQ(r.set.mates.size(), 1u);
  EXPECT_EQ(r.set.mates[0].cube, Cube({Literal{en, false}}));
  EXPECT_EQ(r.set.mates[0].masked_wires.size(), 2u);
  EXPECT_EQ(r.total_mates, 2u) << "pre-merge count keeps per-wire tally";
}

TEST(MateSearch, DanglingFaultGetsConstantTrueMate) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId f = n.add_flop("f", false);
  n.connect_flop(f, in);
  n.add_gate_new(Kind::Inv, {n.flop(f).q}, "unused");
  n.mark_output(in);
  const SearchResult r = find_mates(n, {n.flop(f).q}, quick_params());
  ASSERT_EQ(r.set.mates.size(), 1u);
  EXPECT_TRUE(r.set.mates[0].cube.empty());
}

TEST(MateSearch, HoldRegisterUnmaskable) {
  Netlist n;
  const FlopId f = n.add_flop("hold", false);
  n.connect_flop(f, n.flop(f).q);
  n.mark_output(n.flop(f).q);
  const SearchResult r = find_mates(n, {n.flop(f).q}, quick_params());
  EXPECT_EQ(r.outcomes[0].status, WireStatus::Unmaskable);
  EXPECT_TRUE(r.set.mates.empty());
}

TEST(MateSearch, DepthLimitBlocksDeepMasking) {
  // Fault -> 3 inverters -> AND(x, en): with depth 2 the masking AND is
  // beyond the horizon, with depth 4 it is found.
  Netlist n;
  const WireId en = n.add_input("en");
  const FlopId f = n.add_flop("f", false);
  WireId x = n.flop(f).q;
  for (int i = 0; i < 3; ++i) {
    x = n.add_gate_new(Kind::Inv, {x}, "inv" + std::to_string(i));
  }
  const WireId y = n.add_gate_new(Kind::And2, {x, en}, "y");
  n.mark_output(y);
  n.connect_flop(f, en);

  SearchParams shallow = quick_params();
  shallow.path_depth = 2;
  const SearchResult r1 = find_mates(n, {n.flop(f).q}, shallow);
  EXPECT_EQ(r1.outcomes[0].status, WireStatus::Unmaskable);

  SearchParams deep = quick_params();
  deep.path_depth = 4;
  const SearchResult r2 = find_mates(n, {n.flop(f).q}, deep);
  ASSERT_EQ(r2.set.mates.size(), 1u);
  EXPECT_EQ(r2.set.mates[0].cube, Cube({Literal{en, false}}));
}

TEST(MateSearch, MaxTermsLimitsConjunctions) {
  // d in Figure 1 needs a 2-term MATE; with max_terms = 1 none is found.
  const Figure1Circuit fig = build_figure1_circuit();
  SearchParams p = quick_params();
  p.max_terms = 1;
  const SearchResult r = find_mates(fig.netlist, {fig.d}, p);
  EXPECT_EQ(outcome_of(r, fig.d).status, WireStatus::NoMate);
}

TEST(MateSearch, CandidateBudgetRespected) {
  const Figure1Circuit fig = build_figure1_circuit();
  SearchParams p = quick_params();
  p.max_candidates_per_wire = 1;
  const SearchResult r = find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, p);
  for (const WireOutcome& o : r.outcomes) {
    EXPECT_LE(o.candidates_tried, 1u);
  }
}

TEST(MateSearch, FaultSetHelpers) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId rf0 = n.add_flop("rf0[0]", false);
  const FlopId other = n.add_flop("pc[0]", false);
  n.connect_flop(rf0, in);
  n.connect_flop(other, in);
  n.mark_output(n.flop(rf0).q);
  n.mark_output(n.flop(other).q);
  EXPECT_EQ(all_flop_wires(n).size(), 2u);
  const auto no_rf = flop_wires_excluding_prefix(n, "rf");
  ASSERT_EQ(no_rf.size(), 1u);
  EXPECT_EQ(no_rf[0], n.flop(other).q);
}

// The pool's caller drains work too, so the search runs on threads + 1
// threads and reports them all. Each thread's timed intervals (cone
// fingerprints, per-wire searches, remaps) are disjoint and lie inside the
// search's wall, so busy time never exceeds threads_used x wall.
TEST(MateSearch, BusySecondsFitTheThreadsItRanOn) {
  const Netlist n = cores::avr::build_avr_core(true).netlist;
  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SearchParams p;
    p.threads = threads;
    const SearchResult r = find_mates(n, all_flop_wires(n), p);
    EXPECT_EQ(r.threads_used, threads + 1);
    EXPECT_GT(r.busy_seconds, 0.0);
    EXPECT_LE(r.busy_seconds,
              static_cast<double>(r.threads_used) * r.seconds);
  }
}

// The linchpin property (paper Definition, Section 3): whenever a found MATE
// triggers in a reachable circuit state, flipping the faulty flop must leave
// every flop D input and primary output unchanged — MATE-triggered =>
// Masked, checked against the exact one-cycle oracle (hafi::masked_masks)
// on random circuits and random stimuli.
class SoundnessFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoundnessFuzz, TriggeredMatesAreTrulyMasking) {
  Rng rng(GetParam() * 7919 + 3);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 70;
  spec.num_flops = 10;
  spec.num_inputs = 5;
  spec.allow_xor = (GetParam() % 2) == 0;
  const Netlist n = random_circuit(spec, rng);

  const SearchResult r = find_mates(n, all_flop_wires(n), quick_params());

  const sim::Trace trace = sim::reference_random_trace(n, rng, 40);
  const std::vector<BitVec> masked =
      hafi::masked_masks_of(n, trace, hafi::single_flops(n));

  std::size_t triggers = 0;
  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    const BitVec& values = trace.cycle_values(cycle);
    for (const Mate& m : r.set.mates) {
      if (!m.cube.eval(values)) continue;
      for (WireId fw : m.masked_wires) {
        ++triggers;
        const FlopId f = n.wire(fw).driver_flop;
        EXPECT_TRUE(masked[f.index()].get(cycle))
            << "MATE " << m.cube.to_string(n) << " wrongly masks "
            << n.wire(fw).name << " in cycle " << cycle;
      }
    }
  }
  // A search that finds no triggering MATE would check nothing.
  EXPECT_GT(triggers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessFuzz,
                         ::testing::Range<std::uint64_t>(0, 20));

} // namespace
} // namespace ripple::mate
