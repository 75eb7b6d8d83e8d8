#include <gtest/gtest.h>

#include "cores/avr/core.hpp"
#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "hafi/instrument.hpp"
#include "mate/example.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "netlist/random.hpp"
#include "netlist/verilog.hpp"
#include "sim/simulator.hpp"
#include "support/row_major.hpp"

namespace ripple::hafi {
namespace {

/// Drive the instrumented netlist and the software cube evaluation with the
/// same stimuli; every trigger output must equal its cube's verdict.
void expect_triggers_match(const netlist::Netlist& original,
                           const mate::MateSet& set, std::uint64_t seed,
                           int cycles) {
  const InstrumentedNetlist inst = instrument_with_mates(original, set);
  sim::Simulator hw(inst.netlist);
  sim::Simulator sw(original);

  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    for (WireId w : original.primary_inputs()) {
      const bool v = rng.next_bool();
      sw.set_input(w, v);
      // Input ids are identical in the instrumented copy.
      hw.set_input(w, v);
    }
    sw.eval();
    hw.eval();

    bool any = false;
    for (std::size_t m = 0; m < set.mates.size(); ++m) {
      const bool software = set.mates[m].cube.eval(sw.values());
      const bool hardware = hw.value(inst.triggers[m]);
      EXPECT_EQ(hardware, software) << "MATE " << m << " cycle " << c;
      any = any || software;
    }
    EXPECT_EQ(hw.value(inst.any_trigger), any) << "cycle " << c;

    sw.latch();
    hw.latch();
  }
}

TEST(Instrument, Figure1TriggersMatchSoftware) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const mate::SearchResult r = mate::find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, {});
  ASSERT_FALSE(r.set.mates.empty());
  expect_triggers_match(fig.netlist, r.set, 17, 64);
}

TEST(Instrument, PreservesOriginalBehaviour) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const mate::SearchResult r = mate::find_mates(fig.netlist, {fig.d}, {});
  const InstrumentedNetlist inst = instrument_with_mates(fig.netlist, r.set);

  sim::Simulator a(fig.netlist);
  sim::Simulator b(inst.netlist);
  Rng rng(3);
  for (int c = 0; c < 32; ++c) {
    for (WireId w : fig.netlist.primary_inputs()) {
      const bool v = rng.next_bool();
      a.set_input(w, v);
      b.set_input(w, v);
    }
    a.eval();
    b.eval();
    for (WireId w : fig.netlist.primary_outputs()) {
      EXPECT_EQ(a.value(w), b.value(w));
    }
    a.latch();
    b.latch();
  }
}

TEST(Instrument, ConstantTrueMateBecomesTieHigh) {
  // A dangling fault yields the empty (constant-true) MATE.
  netlist::Netlist n;
  const WireId in = n.add_input("in");
  const FlopId f = n.add_flop("f", false);
  n.connect_flop(f, in);
  n.add_gate_new(netlist::Kind::Inv, {n.flop(f).q}, "unused");
  n.mark_output(in);
  const mate::SearchResult r = mate::find_mates(n, {n.flop(f).q}, {});
  ASSERT_EQ(r.set.mates.size(), 1u);
  ASSERT_TRUE(r.set.mates[0].cube.empty());

  const InstrumentedNetlist inst = instrument_with_mates(n, r.set);
  sim::Simulator sim(inst.netlist);
  sim.eval();
  EXPECT_TRUE(sim.value(inst.triggers[0]));
  EXPECT_TRUE(sim.value(inst.any_trigger));
}

TEST(Instrument, EmptySetYieldsConstantFalseAny) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  mate::MateSet empty;
  const InstrumentedNetlist inst = instrument_with_mates(fig.netlist, empty);
  sim::Simulator sim(inst.netlist);
  sim.eval();
  EXPECT_FALSE(sim.value(inst.any_trigger));
  EXPECT_TRUE(inst.triggers.empty());
}

TEST(Instrument, InstrumentedNetlistRoundTripsThroughVerilog) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const mate::SearchResult r = mate::find_mates(
      fig.netlist, {fig.a, fig.b, fig.d}, {});
  const InstrumentedNetlist inst = instrument_with_mates(fig.netlist, r.set);
  const netlist::Netlist parsed =
      netlist::parse_verilog(netlist::to_verilog(inst.netlist));
  EXPECT_EQ(parsed.num_gates(), inst.netlist.num_gates());
  EXPECT_TRUE(parsed.find_wire("mate_any").has_value());
}

TEST(Instrument, HardwareCostMatchesLutArgument) {
  // Top-50 MATEs on the AVR: the added checker logic must stay tiny
  // relative to the emulated design (Section 6.1).
  const cores::avr::AvrCore core = cores::avr::build_avr_core(true);
  const mate::SearchResult r =
      mate::find_mates(core.netlist, mate::all_flop_wires(core.netlist), {});
  static const cores::avr::Program prog = cores::avr::fib_program();
  cores::avr::AvrSystem sys(core, prog);
  sim::Trace trace(core.netlist);
  sys.run_stream(1000, trace);
  const mate::SelectionResult sel = mate::rank_mates(r.set, trace);
  const mate::MateSet top50 = mate::top_n(r.set, sel, 50);

  const InstrumentedNetlist inst = instrument_with_mates(core.netlist, top50);
  EXPECT_LE(inst.added_gates, 50u * 8u)
      << "a MATE averages < 6 literals -> a handful of cells each";
  EXPECT_LT(static_cast<double>(inst.added_gates),
            0.25 * static_cast<double>(core.netlist.num_gates()));
  expect_triggers_match(core.netlist, top50, 99, 16);
}

// Property: instrumentation is exact on random circuits.
class InstrumentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InstrumentFuzz, TriggersExactOnRandomCircuits) {
  Rng rng(GetParam() + 500);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 60;
  spec.num_flops = 8;
  const netlist::Netlist n = random_circuit(spec, rng);
  const mate::SearchResult r =
      mate::find_mates(n, mate::all_flop_wires(n), {});
  if (r.set.mates.empty()) GTEST_SKIP() << "no MATEs on this circuit";
  expect_triggers_match(n, r.set, GetParam() * 7 + 1, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstrumentFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

} // namespace
} // namespace ripple::hafi
