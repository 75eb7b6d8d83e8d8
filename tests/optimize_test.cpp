#include <gtest/gtest.h>

#include "netlist/random.hpp"
#include "rtl/module.hpp"
#include "rtl/optimize.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

namespace ripple::rtl {
namespace {

using netlist::Kind;
using netlist::Netlist;

/// Drive both netlists with the same random inputs for `cycles` cycles and
/// compare all primary outputs (matched by name).
void expect_equivalent(const Netlist& a, const Netlist& b, std::uint64_t seed,
                       int cycles = 40) {
  sim::Simulator sa(a);
  sim::Simulator sb(b);
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    for (WireId w : a.primary_inputs()) {
      const bool v = rng.next_bool();
      sa.set_input(w, v);
      sb.set_input(*b.find_wire(a.wire(w).name), v);
    }
    sa.eval();
    sb.eval();
    for (WireId w : a.primary_outputs()) {
      const auto wb = b.find_wire(a.wire(w).name);
      ASSERT_TRUE(wb.has_value()) << a.wire(w).name;
      EXPECT_EQ(sa.value(w), sb.value(*wb))
          << "output " << a.wire(w).name << " cycle " << c;
    }
    sa.latch();
    sb.latch();
  }
}

TEST(Optimize, CollapsesBuffers) {
  Netlist n;
  const WireId a = n.add_input("a");
  WireId x = a;
  for (int i = 0; i < 5; ++i) {
    x = n.add_gate_new(Kind::Buf, {x}, strprintf("b%d", i));
  }
  const WireId y = n.add_gate_new(Kind::Inv, {x}, "y");
  n.mark_output(y);
  const OptimizeResult r = optimize(n);
  EXPECT_EQ(r.netlist.num_gates(), 1u); // single INV remains
  expect_equivalent(n, r.netlist, 1);
}

TEST(Optimize, FoldsConstants) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId one = n.add_gate_new(Kind::Tie1, {}, "one");
  const WireId zero = n.add_gate_new(Kind::Tie0, {}, "zero");
  const WireId x = n.add_gate_new(Kind::And2, {a, one}, "x");   // = a
  const WireId y = n.add_gate_new(Kind::Or2, {x, zero}, "y");   // = a
  const WireId z = n.add_gate_new(Kind::And2, {y, zero}, "z");  // = 0
  n.mark_output(z);
  const OptimizeResult r = optimize(n);
  // z is constant 0: a tie cell named 'z' should drive the output.
  const auto zw = r.netlist.find_wire("z");
  ASSERT_TRUE(zw.has_value());
  EXPECT_EQ(r.netlist.gate(r.netlist.wire(*zw).driver_gate).kind, Kind::Tie0);
  expect_equivalent(n, r.netlist, 2);
}

TEST(Optimize, InverterPairCollapses) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId x = n.add_gate_new(Kind::Inv, {a}, "x");
  const WireId y = n.add_gate_new(Kind::Inv, {x}, "y");
  const WireId z = n.add_gate_new(Kind::Buf, {y}, "z");
  n.mark_output(z);
  const OptimizeResult r = optimize(n);
  // z == a: only the port buffer survives.
  EXPECT_EQ(r.netlist.num_gates(), 1u);
  expect_equivalent(n, r.netlist, 3);
}

TEST(Optimize, CseMergesSymmetricDuplicates) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId b = n.add_input("b");
  const WireId x = n.add_gate_new(Kind::And2, {a, b}, "x");
  const WireId y = n.add_gate_new(Kind::And2, {b, a}, "y"); // same function
  const WireId z = n.add_gate_new(Kind::Xor2, {x, y}, "z"); // == 0
  n.mark_output(z);
  const OptimizeResult r = optimize(n);
  EXPECT_GE(r.stats.cse_merged, 1u);
  expect_equivalent(n, r.netlist, 4);
}

TEST(Optimize, RemapsPartiallyConstantCells) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId b = n.add_input("b");
  const WireId one = n.add_gate_new(Kind::Tie1, {}, "one");
  const WireId y = n.add_gate_new(Kind::And3, {a, b, one}, "y"); // -> AND2
  n.mark_output(y);
  const OptimizeResult r = optimize(n);
  const auto yw = r.netlist.find_wire("y");
  EXPECT_EQ(r.netlist.gate(r.netlist.wire(*yw).driver_gate).kind, Kind::And2);
  expect_equivalent(n, r.netlist, 5);
}

TEST(Optimize, DropsDeadLogic) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId y = n.add_gate_new(Kind::Inv, {a}, "y");
  n.add_gate_new(Kind::Inv, {a}, "dead1");
  n.add_gate_new(Kind::Xor2, {a, a}, "dead2");
  n.mark_output(y);
  const OptimizeResult r = optimize(n);
  // The INV survives (possibly plus a port buffer when CSE picked the dead
  // duplicate as representative); the XOR and the unused INV must be gone.
  EXPECT_LE(r.netlist.num_gates(), 2u);
  expect_equivalent(n, r.netlist, 10);
}

TEST(Optimize, DuplicateInputsReduced) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId y = n.add_gate_new(Kind::And2, {a, a}, "y"); // = a
  const WireId z = n.add_gate_new(Kind::Xor2, {a, a}, "z"); // = 0
  n.mark_output(y);
  n.mark_output(z);
  const OptimizeResult r = optimize(n);
  expect_equivalent(n, r.netlist, 6);
}

TEST(Optimize, PreservesFlopsAndInits) {
  Module m("seq");
  const WireId en = m.input("en");
  const Bus q = m.state("q", 4, 0b1010);
  m.next_en(q, en, m.add(q, m.constant_bus(4, 1)).sum);
  m.output_bus(q);
  const Netlist n = m.take();
  const OptimizeResult r = optimize(n);
  EXPECT_EQ(r.netlist.num_flops(), 4u);
  for (FlopId f : r.netlist.all_flops()) {
    const auto orig = n.find_flop(r.netlist.flop(f).name);
    ASSERT_TRUE(orig.has_value());
    EXPECT_EQ(r.netlist.flop(f).init, n.flop(*orig).init);
  }
  expect_equivalent(n, r.netlist, 7);
}

TEST(Optimize, MuxWithIdenticalLegsDisappears) {
  Netlist n;
  const WireId s = n.add_input("s");
  const WireId a = n.add_input("a");
  const WireId y = n.add_gate_new(Kind::Mux2, {s, a, a}, "y"); // = a
  n.mark_output(y);
  const OptimizeResult r = optimize(n);
  // y == a: just a port buffer.
  EXPECT_EQ(r.netlist.num_gates(), 1u);
  EXPECT_EQ(r.netlist.gate(GateId{0}).kind, Kind::Buf);
  expect_equivalent(n, r.netlist, 8);
}

TEST(Optimize, HandlesNoMatchFallback) {
  // MUX2(s, a, 1) = s | a is a cell; MUX2(s, a, 0) = !s & a has no single
  // cell -> fallback keeps a MUX2 with a tie leg. Either way the function
  // must be preserved.
  Netlist n;
  const WireId s = n.add_input("s");
  const WireId a = n.add_input("a");
  const WireId zero = n.add_gate_new(Kind::Tie0, {}, "z0");
  const WireId one = n.add_gate_new(Kind::Tie1, {}, "o1");
  n.mark_output(n.add_gate_new(Kind::Mux2, {s, a, zero}, "y0"));
  n.mark_output(n.add_gate_new(Kind::Mux2, {s, a, one}, "y1"));
  const OptimizeResult r = optimize(n);
  expect_equivalent(n, r.netlist, 9);
}

// Property: optimization never changes behaviour on random circuits.
class OptimizeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeFuzz, EquivalentOnRandomCircuits) {
  Rng rng(GetParam());
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 80;
  spec.num_flops = 10;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  const Netlist n = random_circuit(spec, rng);
  const OptimizeResult r = optimize(n);
  EXPECT_LE(r.netlist.num_gates(), n.num_gates() + r.netlist
                .primary_outputs().size());
  expect_equivalent(n, r.netlist, GetParam() * 13 + 1, 60);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeFuzz,
                         ::testing::Range<std::uint64_t>(0, 25));

} // namespace
} // namespace ripple::rtl
