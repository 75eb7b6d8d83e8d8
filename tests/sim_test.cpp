#include <gtest/gtest.h>

#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "cores/msp430/programs.hpp"
#include "cores/msp430/system.hpp"
#include "netlist/random.hpp"
#include "sim/levelize.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"
#include "util/rng.hpp"

namespace ripple::sim {
namespace {

using netlist::Kind;
using netlist::Netlist;

/// Randomly driven trace of `cycles` cycles.
Trace random_trace(const Netlist& n, std::size_t cycles, Rng& rng) {
  Simulator sim(n);
  const std::span<const WireId> ins = n.primary_inputs();
  return record_trace(sim, cycles, [&](Simulator& s, std::size_t) {
    for (const WireId w : ins) s.set_input(w, rng.next_bool());
  });
}

TEST(Levelize, OrdersDependencies) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId x = n.add_gate_new(Kind::Inv, {a}, "x");
  const WireId y = n.add_gate_new(Kind::Inv, {x}, "y");
  n.mark_output(y);
  const Levelization lv = levelize(n);
  ASSERT_EQ(lv.order.size(), 2u);
  EXPECT_EQ(n.gate(lv.order[0]).output, x);
  EXPECT_EQ(n.gate(lv.order[1]).output, y);
  EXPECT_EQ(lv.depth, 2u);
}

TEST(Levelize, DetectsCombinationalCycle) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId x = n.add_wire("x");
  const WireId y = n.add_gate_new(Kind::And2, {a, x}, "y");
  n.add_gate(Kind::Buf, {y}, x);
  n.mark_output(y);
  EXPECT_THROW(levelize(n), Error);
}

TEST(Levelize, FlopBreaksCycle) {
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  const WireId d = n.add_gate_new(Kind::Inv, {q}, "d");
  n.connect_flop(f, d);
  n.mark_output(q);
  EXPECT_NO_THROW(levelize(n));
}

TEST(Simulator, CombinationalEval) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId b = n.add_input("b");
  const WireId y = n.add_gate_new(Kind::And2, {a, b}, "y");
  n.mark_output(y);
  Simulator sim(n);
  sim.set_input(a, true);
  sim.set_input(b, false);
  sim.eval();
  EXPECT_FALSE(sim.value(y));
  sim.set_input(b, true);
  sim.eval();
  EXPECT_TRUE(sim.value(y));
}

TEST(Simulator, ToggleFlop) {
  // r' = !r, a divide-by-two toggle.
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  const WireId d = n.add_gate_new(Kind::Inv, {q}, "d");
  n.connect_flop(f, d);
  n.mark_output(q);
  Simulator sim(n);
  sim.eval();
  EXPECT_FALSE(sim.value(q));
  sim.step();
  sim.eval();
  EXPECT_TRUE(sim.value(q));
  sim.step();
  sim.eval();
  EXPECT_FALSE(sim.value(q));
  EXPECT_EQ(sim.cycle(), 2u);
}

TEST(Simulator, InitValuesRespected) {
  Netlist n;
  const FlopId f1 = n.add_flop("r1", true);
  const FlopId f0 = n.add_flop("r0", false);
  n.connect_flop(f1, n.flop(f1).q);
  n.connect_flop(f0, n.flop(f0).q);
  n.mark_output(n.flop(f1).q);
  n.mark_output(n.flop(f0).q);
  Simulator sim(n);
  sim.eval();
  EXPECT_TRUE(sim.value(n.flop(f1).q));
  EXPECT_FALSE(sim.value(n.flop(f0).q));
}

TEST(Simulator, ResetRestoresInit) {
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  n.connect_flop(f, n.add_gate_new(Kind::Inv, {q}, "d"));
  n.mark_output(q);
  Simulator sim(n);
  sim.step();
  sim.eval();
  EXPECT_TRUE(sim.value(q));
  sim.reset();
  EXPECT_FALSE(sim.value(q));
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Simulator, BusHelpers) {
  Netlist n;
  Bus in;
  for (int i = 0; i < 8; ++i) {
    in.push_back(n.add_input("in[" + std::to_string(i) + "]"));
  }
  Bus out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(n.add_gate_new(Kind::Inv, {in[i]},
                                 "out[" + std::to_string(i) + "]"));
    n.mark_output(out[i]);
  }
  Simulator sim(n);
  sim.drive_bus(in, 0xa5);
  sim.eval();
  EXPECT_EQ(sim.read_bus(in), 0xa5u);
  EXPECT_EQ(sim.read_bus(out), 0x5au);
}

TEST(Simulator, FlipFlopInjectsSeu) {
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  n.connect_flop(f, q); // hold register
  n.mark_output(q);
  Simulator sim(n);
  sim.eval();
  EXPECT_FALSE(sim.value(q));
  sim.flip_flop(f);
  sim.eval();
  EXPECT_TRUE(sim.value(q));
  sim.step(); // fault persists through the hold loop
  sim.eval();
  EXPECT_TRUE(sim.value(q));
}

TEST(Simulator, FlopStateSnapshotRoundTrip) {
  Netlist n;
  const FlopId f0 = n.add_flop("a", false);
  const FlopId f1 = n.add_flop("b", true);
  n.connect_flop(f0, n.flop(f1).q);
  n.connect_flop(f1, n.flop(f0).q);
  n.mark_output(n.flop(f0).q);
  Simulator sim(n);
  const BitVec s0 = sim.flop_state();
  sim.step();
  EXPECT_NE(sim.flop_state(), s0);
  sim.set_flop_state(s0);
  EXPECT_EQ(sim.flop_state(), s0);
}

TEST(Simulator, EvalIsIdempotent) {
  Rng rng(4);
  netlist::RandomCircuitSpec spec;
  const Netlist n = random_circuit(spec, rng);
  Simulator sim(n);
  for (WireId w : n.primary_inputs()) sim.set_input(w, rng.next_bool());
  sim.eval();
  const BitVec snap = sim.values();
  sim.eval();
  EXPECT_EQ(sim.values(), snap);
}

TEST(Simulator, CoreStepSweepsEachGateOnce) {
  // The memory harnesses settle the state, serve the read data and settle
  // only the input fan-out, so one clock cycle evaluates every gate once.
  const cores::avr::AvrCore avr = cores::avr::build_avr_core(true);
  cores::avr::AvrSystem avr_sys(avr, cores::avr::fib_program());
  const cores::msp430::Msp430Core msp = cores::msp430::build_msp430_core(true);
  cores::msp430::Msp430System msp_sys(msp, cores::msp430::fib_image());
  for (int c = 0; c < 3; ++c) {
    const std::uint64_t avr_before = avr_sys.simulator().gate_evals();
    avr_sys.step();
    EXPECT_EQ(avr_sys.simulator().gate_evals() - avr_before,
              avr.netlist.num_gates());
    const std::uint64_t msp_before = msp_sys.simulator().gate_evals();
    msp_sys.step();
    EXPECT_EQ(msp_sys.simulator().gate_evals() - msp_before,
              msp.netlist.num_gates());
  }
}

TEST(Trace, RecordsPerCycleValues) {
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  n.connect_flop(f, n.add_gate_new(Kind::Inv, {q}, "d"));
  n.mark_output(q);
  Simulator sim(n);
  Trace trace = record_trace(sim, 4, [](Simulator&, std::size_t) {});
  ASSERT_EQ(trace.num_cycles(), 4u);
  EXPECT_FALSE(trace.value(0, q));
  EXPECT_TRUE(trace.value(1, q));
  EXPECT_FALSE(trace.value(2, q));
  EXPECT_TRUE(trace.value(3, q));
}

TEST(Trace, AlignReordersByName) {
  Netlist n;
  const WireId a = n.add_input("a");
  const WireId y = n.add_gate_new(Kind::Inv, {a}, "y");
  n.mark_output(y);
  // Build a foreign trace with swapped wire order.
  Trace foreign = make_trace_for_names({"y", "a", "extra"});
  BitVec row(3);
  row.set(0, true); // y = 1
  row.set(2, true); // extra = 1 (dropped)
  foreign.append_row(row);
  const Trace aligned = align_trace(foreign, n);
  ASSERT_EQ(aligned.num_cycles(), 1u);
  EXPECT_FALSE(aligned.value(0, a));
  EXPECT_TRUE(aligned.value(0, y));
}

TEST(Trace, AlignMissingWireThrows) {
  Netlist n;
  const WireId a = n.add_input("a");
  n.mark_output(n.add_gate_new(Kind::Buf, {a}, "y"));
  Trace foreign = make_trace_for_names({"a"});
  foreign.append_row(BitVec(1));
  EXPECT_THROW(align_trace(foreign, n), Error);
}

TEST(TransposedTrace, MatchesTraceBitForBit) {
  Rng rng(11);
  const Netlist n = netlist::random_circuit({.num_inputs = 3, .num_flops = 5,
                                    .num_gates = 30},
                                   rng);
  // Lengths around the 64-cycle block boundary, including partial blocks.
  for (const std::size_t cycles : {1u, 7u, 63u, 64u, 65u, 130u, 257u}) {
    const Trace trace = random_trace(n, cycles, rng);
    const TransposedTrace tt(trace);
    ASSERT_EQ(tt.num_wires(), trace.num_wires());
    ASSERT_EQ(tt.num_cycles(), cycles);
    ASSERT_EQ(tt.num_blocks(), (cycles + 63) / 64);
    for (std::size_t c = 0; c < cycles; ++c) {
      for (std::size_t w = 0; w < trace.num_wires(); ++w) {
        ASSERT_EQ(tt.value(c, WireId{static_cast<std::uint32_t>(w)}),
                  trace.value(c, WireId{static_cast<std::uint32_t>(w)}))
            << "cycle " << c << " wire " << w << " of " << cycles;
      }
    }
  }
}

TEST(TransposedTrace, TailBitsPastEndAreZero) {
  Rng rng(12);
  const Netlist n = netlist::random_circuit({.num_inputs = 2, .num_flops = 3,
                                    .num_gates = 10},
                                   rng);
  const Trace trace = random_trace(n, 70, rng);
  const TransposedTrace tt(trace);
  const std::uint64_t mask = tt.block_mask(1);
  EXPECT_EQ(mask, (std::uint64_t{1} << 6) - 1); // 70 - 64 = 6 tail cycles
  EXPECT_EQ(tt.block_mask(0), ~std::uint64_t{0});
  for (std::size_t w = 0; w < tt.num_wires(); ++w) {
    EXPECT_EQ(tt.wire_stream(w)[1] & ~mask, 0u) << "wire " << w;
  }
}

TEST(TransposedTrace, EmptyTrace) {
  const Trace trace;
  const TransposedTrace tt(trace);
  EXPECT_EQ(tt.num_cycles(), 0u);
  EXPECT_EQ(tt.num_blocks(), 0u);
}

} // namespace
} // namespace ripple::sim
