#include <gtest/gtest.h>

#include "netlist/random.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/vcd.hpp"
#include "util/strings.hpp"

namespace ripple::sim {
namespace {

using netlist::Kind;
using netlist::Netlist;

Trace sample_trace(const Netlist& n, std::uint64_t seed, std::size_t cycles) {
  Simulator sim(n);
  Rng rng(seed);
  return record_trace(sim, cycles, [&](Simulator& s, std::size_t) {
    for (WireId w : n.primary_inputs()) s.set_input(w, rng.next_bool());
  });
}

TEST(Vcd, WriterEmitsHeaderAndChanges) {
  Netlist n;
  const WireId a = n.add_input("a");
  n.mark_output(n.add_gate_new(Kind::Inv, {a}, "y"));
  Simulator sim(n);
  Trace t = record_trace(sim, 3, [&](Simulator& s, std::size_t c) {
    s.set_input(a, c % 2 == 1);
  });
  const std::string vcd = to_vcd(t, "dut");
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module dut"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
}

TEST(Vcd, RoundTripExactValues) {
  Rng rng(11);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 50;
  spec.num_flops = 6;
  const Netlist n = random_circuit(spec, rng);
  const Trace original = sample_trace(n, 3, 40);
  const Trace parsed = parse_vcd(to_vcd(original));
  ASSERT_EQ(parsed.num_cycles(), original.num_cycles());
  ASSERT_EQ(parsed.num_wires(), original.num_wires());
  for (std::size_t c = 0; c < original.num_cycles(); ++c) {
    EXPECT_EQ(parsed.cycle_values(c), original.cycle_values(c)) << c;
  }
}

TEST(Vcd, RoundTripPreservesNames) {
  Netlist n;
  n.add_input("alpha");
  const WireId b = n.add_input("bus[7]");
  n.mark_output(n.add_gate_new(Kind::Buf, {b}, "y"));
  const Trace t = sample_trace(n, 1, 2);
  const Trace parsed = parse_vcd(to_vcd(t));
  EXPECT_EQ(parsed.wire_name(0), "alpha");
  EXPECT_EQ(parsed.wire_name(1), "bus[7]");
  // align back onto the netlist still works
  EXPECT_NO_THROW(align_trace(parsed, n));
}

TEST(Vcd, ParserAcceptsForeignConstructs) {
  const char* vcd = R"($date today $end
$version someone else $end
$timescale 1ps $end
$comment irrelevant $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 1 " data $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
x"
$end
#1
1!
b1 "
#2
0!
)";
  const Trace t = parse_vcd(vcd);
  ASSERT_EQ(t.num_cycles(), 3u);
  ASSERT_EQ(t.num_wires(), 2u);
  EXPECT_FALSE(t.value(0, WireId{0}));
  EXPECT_FALSE(t.value(0, WireId{1})); // x -> 0
  EXPECT_TRUE(t.value(1, WireId{0}));
  EXPECT_TRUE(t.value(1, WireId{1})); // b1 form
  EXPECT_FALSE(t.value(2, WireId{0}));
  EXPECT_TRUE(t.value(2, WireId{1})); // held value
}

TEST(Vcd, ParserFlattensSubScopes) {
  const char* vcd = R"($scope module top $end
$scope module cpu $end
$var wire 1 ! pc0 $end
$upscope $end
$upscope $end
$enddefinitions $end
#0
1!
)";
  const Trace t = parse_vcd(vcd);
  ASSERT_EQ(t.num_wires(), 1u);
  EXPECT_EQ(t.wire_name(0), "cpu.pc0");
}

TEST(Vcd, ParserRejectsWideVariables) {
  const char* vcd = R"($scope module top $end
$var wire 8 ! bus $end
$upscope $end
$enddefinitions $end
)";
  EXPECT_THROW(parse_vcd(vcd), Error);
}

TEST(Vcd, ParserRejectsUndeclaredId) {
  const char* vcd = R"($scope module top $end
$var wire 1 ! a $end
$upscope $end
$enddefinitions $end
#0
1@
)";
  EXPECT_THROW(parse_vcd(vcd), Error);
}

TEST(Vcd, ManyWiresGetDistinctIdCodes) {
  Netlist n;
  std::vector<WireId> ins;
  for (int i = 0; i < 200; ++i) {
    ins.push_back(n.add_input(strprintf("w%d", i)));
  }
  n.mark_output(n.add_gate_new(Kind::Buf, {ins[0]}, "y"));
  const Trace t = sample_trace(n, 1, 3);
  const Trace parsed = parse_vcd(to_vcd(t));
  ASSERT_EQ(parsed.num_wires(), t.num_wires());
  for (std::size_t c = 0; c < t.num_cycles(); ++c) {
    EXPECT_EQ(parsed.cycle_values(c), t.cycle_values(c));
  }
}

} // namespace
} // namespace ripple::sim
