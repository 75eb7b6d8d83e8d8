#include <gtest/gtest.h>

#include "mate/eval.hpp"
#include "mate/example.hpp"
#include "mate/faultspace.hpp"
#include "mate/lut_cost.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "support/oracles.hpp"
#include "support/row_major.hpp"

namespace ripple::mate {
namespace {

using netlist::Netlist;

/// Drive the Figure-1 circuit with a fixed 8-cycle input schedule (one row
/// per input a..e) and record the trace.
sim::Trace fig1_trace(const Figure1Circuit& fig,
                      const std::array<std::uint8_t, 5>& patterns) {
  sim::Simulator sim(fig.netlist);
  const WireId ins[5] = {fig.a, fig.b, fig.c, fig.d, fig.e};
  return sim::record_trace(sim, 8, [&](sim::Simulator& s, std::size_t c) {
    for (int i = 0; i < 5; ++i) {
      s.set_input(ins[i], (patterns[static_cast<std::size_t>(i)] >> c) & 1u);
    }
  });
}

TEST(MateEval, Figure1FaultSpaceReduction) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});

  // b = 0 in cycles 0,1; a = 0 in cycles 2,3; f/h make d benign in some
  // cycles depending on a,b,e.
  const sim::Trace trace =
      fig1_trace(fig, {0b11110011u, 0b11111100u, 0xffu, 0xffu, 0x0fu});
  const EvalResult eval = evaluate_mates(r.set, trace);

  EXPECT_EQ(eval.num_cycles, 8u);
  EXPECT_EQ(eval.num_faulty_wires, 5u);
  EXPECT_EQ(eval.fault_space(), 40u);
  EXPECT_GT(eval.masked_faults, 0u);
  EXPECT_LT(eval.masked_faults, 40u);
  EXPECT_GT(eval.effective_mates, 0u);
  EXPECT_GT(eval.avg_inputs, 0.0);

  // Cross-check against the benign matrix.
  const auto benign = benign_matrix(r.set, trace);
  std::size_t total = 0;
  for (const auto& row : benign) {
    for (bool b : row) total += b ? 1 : 0;
  }
  EXPECT_EQ(total, eval.masked_faults);
}

TEST(MateEval, ManualExpectations) {
  // Single MATE (!en) masking wire w: masked count = cycles where en == 0.
  Netlist n;
  const WireId en = n.add_input("en");
  const FlopId f = n.add_flop("f", false);
  const FlopId t = n.add_flop("t", false);
  n.connect_flop(t, n.add_gate_new(netlist::Kind::And2,
                                   {n.flop(f).q, en}, "k"));
  n.connect_flop(f, en);
  n.mark_output(n.flop(t).q);

  const SearchResult r = find_mates(n, {n.flop(f).q}, {});
  ASSERT_EQ(r.set.mates.size(), 1u);

  sim::Simulator sim(n);
  const sim::Trace trace =
      sim::record_trace(sim, 6, [&](sim::Simulator& s, std::size_t c) {
        s.set_input(en, c % 3 == 0); // en=1 in cycles 0 and 3
      });
  const EvalResult eval = evaluate_mates(r.set, trace);
  EXPECT_EQ(eval.masked_faults, 4u);
  EXPECT_DOUBLE_EQ(eval.masked_fraction(), 4.0 / 6.0);
  EXPECT_EQ(eval.per_mate[0].triggers, 4u);
  EXPECT_EQ(eval.effective_mates, 1u);
}

TEST(MateSelect, TopNMatchesFullSetWhenNLarge) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});
  const sim::Trace trace =
      fig1_trace(fig, {0b10101010, 0b01100110, 0b11000011, 0xff, 0b00111100});

  const SelectionResult sel = rank_mates(r.set, trace);
  EXPECT_EQ(sel.ranking.size(), r.set.mates.size());

  const MateSet all = top_n(r.set, sel, r.set.mates.size() + 10);
  EXPECT_EQ(all.mates.size(), r.set.mates.size());
  EXPECT_EQ(evaluate_mates(all, trace).masked_faults,
            evaluate_mates(r.set, trace).masked_faults);
}

TEST(MateSelect, RankingIsByMarginalGain) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});
  const sim::Trace trace =
      fig1_trace(fig, {0b10101010, 0b01100110, 0b11000011, 0xff, 0b00111100});
  const SelectionResult sel = rank_mates(r.set, trace);
  // Hit counters are sorted descending along the ranking.
  for (std::size_t i = 1; i < sel.ranking.size(); ++i) {
    EXPECT_GE(sel.hits[sel.ranking[i - 1]], sel.hits[sel.ranking[i]]);
  }
  // Top-1 must achieve at least as much coverage as any single other MATE.
  const std::size_t top_masked =
      evaluate_mates(top_n(r.set, sel, 1), trace).masked_faults;
  for (std::size_t m = 0; m < r.set.mates.size(); ++m) {
    MateSet single;
    single.faulty_wires = r.set.faulty_wires;
    single.mates.push_back(r.set.mates[m]);
    EXPECT_GE(top_masked, evaluate_mates(single, trace).masked_faults);
  }
}

TEST(MateSelect, MonotoneCoverageInN) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});
  const sim::Trace trace =
      fig1_trace(fig, {0b00110101, 0b01010011, 0b10111101, 0xf0, 0b00101100});
  const SelectionResult sel = rank_mates(r.set, trace);
  std::size_t prev = 0;
  for (std::size_t k = 1; k <= r.set.mates.size(); ++k) {
    const std::size_t masked =
        evaluate_mates(top_n(r.set, sel, k), trace).masked_faults;
    EXPECT_GE(masked, prev);
    prev = masked;
  }
}

TEST(FaultGrid, RendersPaperStyleGrid) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});
  const sim::TransposedTrace trace(fig1_trace(fig, {0, 0, 0xff, 0xff, 0}));
  sim::TransposedTraceSource source(trace);
  const std::string grid = render_fault_grid(fig.netlist, r.set, source);
  EXPECT_NE(grid.find('o'), std::string::npos) << grid;
  EXPECT_NE(grid.find('*'), std::string::npos) << grid;
  EXPECT_NE(grid.find("a "), std::string::npos);
}

TEST(LutCost, ModelBoundaries) {
  Mate m;
  m.cube = Cube{};
  EXPECT_EQ(mate_luts(m), 0u);
  std::vector<Literal> lits;
  for (std::uint32_t i = 0; i < 6; ++i) lits.push_back({WireId{i}, true});
  m.cube = Cube(lits);
  EXPECT_EQ(mate_luts(m), 1u);
  lits.push_back({WireId{6}, true});
  m.cube = Cube(lits);
  EXPECT_EQ(mate_luts(m), 2u); // 7 inputs -> cascade of two 6-LUTs
  for (std::uint32_t i = 7; i < 11; ++i) lits.push_back({WireId{i}, true});
  m.cube = Cube(lits);
  EXPECT_EQ(mate_luts(m), 2u); // 11 = 6 + 5 still fits two
  lits.push_back({WireId{11}, true});
  m.cube = Cube(lits);
  EXPECT_EQ(mate_luts(m), 3u); // 12 inputs
}

TEST(LutCost, SetCostSumsAndStaysNegligible) {
  const Figure1Circuit fig = build_figure1_circuit();
  const SearchResult r = find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, {});
  const std::size_t luts = set_luts(r.set);
  EXPECT_GT(luts, 0u);
  EXPECT_LE(luts, r.set.mates.size() * 2u);
  const HafiPlatformCosts ref;
  EXPECT_LT(luts, ref.controller_luts_low);
}

} // namespace
} // namespace ripple::mate
