#include <gtest/gtest.h>

#include <algorithm>

#include "mate/cone.hpp"
#include "mate/example.hpp"
#include "mate/paths.hpp"
#include "netlist/random.hpp"
#include "util/strings.hpp"

namespace ripple::mate {
namespace {

using netlist::Kind;
using netlist::Netlist;

TEST(FaultCone, Figure1ConeOfD) {
  const Figure1Circuit fig = build_figure1_circuit();
  const FaultCone cone = compute_cone(fig.netlist, fig.d);

  // Paper: cone wires {d, g, k, l}, border wires {c, f, h}.
  std::vector<WireId> wires = {fig.d, fig.g, fig.k, fig.l};
  std::sort(wires.begin(), wires.end());
  EXPECT_EQ(cone.wires, wires);

  std::vector<WireId> border = {fig.c, fig.f, fig.h};
  std::sort(border.begin(), border.end());
  EXPECT_EQ(cone.border_wires, border);

  EXPECT_EQ(cone.gates.size(), 3u); // B, D, E
  // Observers: outputs k and l.
  std::vector<WireId> obs = {fig.k, fig.l};
  std::sort(obs.begin(), obs.end());
  EXPECT_EQ(cone.observers, obs);

  EXPECT_TRUE(cone.contains_wire(fig.g));
  EXPECT_FALSE(cone.contains_wire(fig.f));
}

TEST(FaultCone, ConeGatesAreTopologicallySorted) {
  const Figure1Circuit fig = build_figure1_circuit();
  const FaultCone cone = compute_cone(fig.netlist, fig.d);
  // B (producing g) must precede D and E.
  const auto pos = [&](WireId out) {
    for (std::size_t i = 0; i < cone.gates.size(); ++i) {
      if (fig.netlist.gate(cone.gates[i]).output == out) return i;
    }
    return cone.gates.size();
  };
  EXPECT_LT(pos(fig.g), pos(fig.k));
  EXPECT_LT(pos(fig.g), pos(fig.l));
}

TEST(FaultCone, FlopDrivenConeStopsAtFlops) {
  Netlist n;
  const FlopId src = n.add_flop("src", false);
  const FlopId dst = n.add_flop("dst", false);
  const WireId q = n.flop(src).q;
  const WireId x = n.add_gate_new(Kind::Inv, {q}, "x");
  n.connect_flop(dst, x);
  n.connect_flop(src, n.flop(dst).q);
  const WireId y = n.add_gate_new(Kind::Buf, {n.flop(dst).q}, "y");
  n.mark_output(y);

  const FaultCone cone = compute_cone(n, q);
  // The cone must not cross dst's D pin into the next cycle.
  EXPECT_EQ(cone.gates.size(), 1u);
  EXPECT_EQ(cone.observers.size(), 1u);
  EXPECT_EQ(cone.observers[0], x);
}

TEST(Paths, Figure1PathsOfD) {
  const Figure1Circuit fig = build_figure1_circuit();
  const FaultCone cone = compute_cone(fig.netlist, fig.d);
  const PathEnumResult pr = enumerate_paths(fig.netlist, cone, {});
  EXPECT_TRUE(pr.complete);
  EXPECT_FALSE(pr.origin_observable);
  // Paper: two paths [B, D] and [B, E].
  ASSERT_EQ(pr.paths.size(), 2u);
  for (const Path& p : pr.paths) {
    ASSERT_EQ(p.gates.size(), 2u);
    EXPECT_FALSE(p.open);
    EXPECT_EQ(fig.netlist.gate(p.gates[0]).output, fig.g);
  }
}

TEST(Paths, ObservableOriginYieldsEmptyPath) {
  Netlist n;
  const FlopId f = n.add_flop("f", false);
  const WireId q = n.flop(f).q;
  n.connect_flop(f, q); // hold: Q feeds own D
  n.mark_output(q);
  const FaultCone cone = compute_cone(n, q);
  const PathEnumResult pr = enumerate_paths(n, cone, {});
  EXPECT_TRUE(pr.origin_observable);
  ASSERT_GE(pr.paths.size(), 1u);
  EXPECT_TRUE(pr.paths[0].gates.empty());
}

TEST(Paths, DepthHorizonMarksOpenPaths) {
  // A chain of 6 inverters; with max_depth 3 the fault is still alive at the
  // horizon, so exactly one open path of length 3 must be reported.
  Netlist n;
  const WireId a = n.add_input("a");
  WireId x = a;
  for (int i = 0; i < 6; ++i) {
    x = n.add_gate_new(Kind::Inv, {x}, strprintf("i%d", i));
  }
  n.mark_output(x);
  const FaultCone cone = compute_cone(n, a);
  PathEnumParams params;
  params.max_depth = 3;
  const PathEnumResult pr = enumerate_paths(n, cone, params);
  ASSERT_EQ(pr.paths.size(), 1u);
  EXPECT_TRUE(pr.paths[0].open);
  EXPECT_EQ(pr.paths[0].gates.size(), 3u);
}

TEST(Paths, DeadEndProducesNoPath) {
  // Fault feeds logic that reaches neither an output nor a flop.
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId b = n.add_input("b");
  n.add_gate_new(Kind::And2, {a, b}, "dangling");
  n.mark_output(b);
  const FaultCone cone = compute_cone(n, a);
  const PathEnumResult pr = enumerate_paths(n, cone, {});
  EXPECT_TRUE(pr.complete);
  EXPECT_TRUE(pr.paths.empty());
}

TEST(Paths, BudgetOverflowReportsIncomplete) {
  // A 12-level butterfly: every level doubles the path count.
  Netlist n;
  const WireId a = n.add_input("a");
  std::vector<WireId> level = {a, a};
  for (int l = 0; l < 12; ++l) {
    std::vector<WireId> next;
    for (std::size_t i = 0; i < level.size() && next.size() < 2; ++i) {
      next.push_back(n.add_gate_new(
          Kind::Or2, {level[0], level[level.size() - 1]},
          strprintf("n%d_%zu", l, i)));
    }
    level = next;
  }
  n.mark_output(level[0]);
  const FaultCone cone = compute_cone(n, a);
  PathEnumParams params;
  params.max_depth = 16;
  params.max_paths = 100;
  const PathEnumResult pr = enumerate_paths(n, cone, params);
  EXPECT_FALSE(pr.complete);
}

TEST(Paths, CountedAgainstRandomCircuits) {
  // Sanity: every emitted closed path ends at an observer and every gate on
  // a path reads a cone wire.
  Rng rng(5);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 60;
  spec.num_flops = 8;
  const Netlist n = random_circuit(spec, rng);
  for (FlopId f : n.all_flops()) {
    const FaultCone cone = compute_cone(n, n.flop(f).q);
    const PathEnumResult pr = enumerate_paths(n, cone, {});
    if (!pr.complete) continue;
    for (const Path& p : pr.paths) {
      if (p.gates.empty()) continue;
      for (GateId g : p.gates) {
        const auto& gate = n.gate(g);
        const bool reads_cone =
            std::any_of(gate.inputs.begin(), gate.inputs.end(),
                        [&](WireId w) { return cone.contains_wire(w); });
        EXPECT_TRUE(reads_cone);
      }
      if (!p.open) {
        const WireId end = n.gate(p.gates.back()).output;
        const auto& w = n.wire(end);
        EXPECT_TRUE(w.is_primary_output || !w.flop_fanout.empty());
      }
    }
  }
}

} // namespace
} // namespace ripple::mate
