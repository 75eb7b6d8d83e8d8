// Gate-kernel contracts: every lane of the 64-lane BatchSimulator, and the
// scalar Simulator that views its lane 0, behaves exactly like the per-bit
// ReferenceSimulator in tests/support — per cell kind (against the library
// truth tables), on randomized synchronous circuits with per-lane inputs,
// under the two-phase protocol with inputs driven between the phases, and
// on both cores' recorded traces — plus the fault-injection primitives
// (lane-masked flip_flop, XOR-vs-golden-lane state_divergence), the lane
// transposes of the bus helpers and the refusal of an input-dependent
// address bus.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "cell/library.hpp"
#include "cores/avr/programs.hpp"
#include "cores/msp430/programs.hpp"
#include "netlist/random.hpp"
#include "pipeline/registry.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"
#include "support/reference_sim.hpp"

namespace ripple::sim {
namespace {

using netlist::Kind;
using netlist::Netlist;

/// A random synchronous circuit using every combinational cell kind (ties
/// included), each at least once.
Netlist every_kind_circuit(Rng& rng, std::size_t num_inputs,
                           std::size_t num_flops, std::size_t num_gates) {
  Netlist n("kinds");
  std::vector<WireId> pool;
  for (std::size_t i = 0; i < num_inputs; ++i) {
    pool.push_back(n.add_input("in" + std::to_string(i)));
  }
  std::vector<FlopId> flops;
  for (std::size_t i = 0; i < num_flops; ++i) {
    flops.push_back(n.add_flop("r" + std::to_string(i), rng.next_bool()));
    pool.push_back(n.flop(flops.back()).q);
  }
  const std::span<const cell::Kind> kinds =
      cell::Library::instance().combinational_kinds();
  for (std::size_t i = 0; i < num_gates; ++i) {
    const cell::Kind kind =
        i < kinds.size() ? kinds[i] : kinds[rng.next_below(kinds.size())];
    std::vector<WireId> ins(cell::num_inputs(kind));
    for (WireId& w : ins) w = pool[rng.next_below(pool.size())];
    pool.push_back(n.add_gate_new(kind, ins, "g" + std::to_string(i)));
  }
  for (const FlopId f : flops) {
    n.connect_flop(f, pool[rng.next_below(pool.size())]);
  }
  n.mark_output(pool.back());
  n.check();
  return n;
}

/// Wires the primary inputs reach, computed by a plain fan-out walk.
std::vector<bool> input_fanout(const Netlist& n) {
  std::vector<bool> reached(n.num_wires(), false);
  std::vector<WireId> stack(n.primary_inputs().begin(),
                            n.primary_inputs().end());
  while (!stack.empty()) {
    const WireId w = stack.back();
    stack.pop_back();
    if (reached[w.index()]) continue;
    reached[w.index()] = true;
    for (const GateId g : n.wire(w).gate_fanout) {
      stack.push_back(n.gate(g).output);
    }
  }
  return reached;
}

TEST(BatchSim, EveryCellKindMatchesTruthTable) {
  // One gate per combinational kind, all fed from the same four inputs;
  // lanes 0..15 carry the 16 input assignments, so one eval checks every
  // kind against every row of its truth table at once.
  Netlist n;
  Bus in;
  for (int i = 0; i < 4; ++i) {
    in.push_back(n.add_input("in" + std::to_string(i)));
  }
  std::vector<std::pair<cell::Kind, WireId>> outs;
  for (const cell::Kind kind :
       cell::Library::instance().combinational_kinds()) {
    std::vector<WireId> gate_in(in.begin(),
                                in.begin() + static_cast<std::ptrdiff_t>(
                                                 cell::num_inputs(kind)));
    const WireId out = n.add_gate_new(kind, gate_in,
                                      std::string(cell::name(kind)) + "_out");
    n.mark_output(out);
    outs.emplace_back(kind, out);
  }

  BatchSimulator sim(n);
  // Input j's word: bit lane = bit j of the assignment `lane & 15`.
  for (std::size_t j = 0; j < in.size(); ++j) {
    std::uint64_t word = 0;
    for (unsigned lane = 0; lane < kBatchLanes; ++lane) {
      word |= static_cast<std::uint64_t>((lane >> j) & 1u) << lane;
    }
    sim.set_input(in[j], word);
  }
  sim.eval();
  for (const auto& [kind, out] : outs) {
    const std::uint64_t word = sim.value(out);
    for (unsigned lane = 0; lane < kBatchLanes; ++lane) {
      const std::uint32_t assignment =
          (lane & 15u) & ((1u << cell::num_inputs(kind)) - 1u);
      EXPECT_EQ((word >> lane) & 1u,
                static_cast<std::uint64_t>(cell::eval(kind, assignment)))
          << cell::name(kind) << " lane " << lane;
    }
  }
}

TEST(BatchSim, LanesMatchScalarOnRandomCircuits) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    netlist::RandomCircuitSpec spec;
    spec.num_inputs = 6;
    spec.num_flops = 10;
    spec.num_gates = 80;
    const Netlist n = random_circuit(spec, rng);
    const auto inputs = n.primary_inputs();

    // Drive every lane with its own random input stream for 16 cycles and
    // record the batch wire words per cycle...
    constexpr std::size_t kCycles = 16;
    BatchSimulator batch(n);
    std::vector<std::vector<std::uint64_t>> input_words(
        kCycles, std::vector<std::uint64_t>(inputs.size()));
    std::vector<std::vector<std::uint64_t>> wire_words(kCycles);
    for (std::size_t c = 0; c < kCycles; ++c) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        input_words[c][i] = rng.next_u64();
        batch.set_input(inputs[i], input_words[c][i]);
      }
      batch.eval();
      for (WireId w : n.all_wires()) {
        wire_words[c].push_back(batch.value(w));
      }
      batch.latch();
    }

    // ...then replay a handful of lanes on the per-bit reference simulator
    // and demand bit-exact agreement on every wire of every cycle.
    for (const unsigned lane : {0u, 1u, 31u, 63u}) {
      ReferenceSimulator reference(n);
      for (std::size_t c = 0; c < kCycles; ++c) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          reference.set_input(inputs[i], (input_words[c][i] >> lane) & 1u);
        }
        reference.eval();
        std::size_t wi = 0;
        for (WireId w : n.all_wires()) {
          ASSERT_EQ((wire_words[c][wi++] >> lane) & 1u,
                    static_cast<std::uint64_t>(reference.value(w)))
              << "seed " << seed << " lane " << lane << " cycle " << c
              << " wire '" << n.wire(w).name << "'";
        }
        reference.latch();
      }
    }
  }
}

TEST(BatchSim, SplitProtocolMatchesReferenceOnEveryCellKind) {
  // Random circuits over every cell kind, driven through both protocols in
  // alternation: eval() after setting the inputs, and eval_state(), then
  // the inputs, then eval_inputs(). Random lane-masked SEUs ride along.
  // Lanes 0/1/31/63 of the batch kernel and the scalar Simulator (lane 0)
  // must match per-lane reference simulators on every wire of every cycle;
  // wires outside the input fan-out must already be final after
  // eval_state(); and each cycle costs exactly one sweep of the netlist.
  constexpr std::array<unsigned, 4> kLanes = {0, 1, 31, 63};
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    Rng rng(seed);
    const Netlist n = every_kind_circuit(rng, 5, 8, 150);
    const std::span<const WireId> inputs = n.primary_inputs();
    const std::vector<bool> dependent = input_fanout(n);

    BatchSimulator batch(n);
    Simulator scalar(n);
    for (const WireId w : n.all_wires()) {
      if (dependent[w.index()]) {
        EXPECT_THROW(batch.require_state_only(Bus{w}), Error);
      } else {
        EXPECT_NO_THROW(batch.require_state_only(Bus{w}));
      }
    }
    std::vector<ReferenceSimulator> refs;
    for (std::size_t k = 0; k < kLanes.size(); ++k) refs.emplace_back(n);

    for (std::size_t c = 0; c < 32; ++c) {
      if (rng.next_below(3) == 0) {
        const FlopId f(static_cast<std::uint32_t>(
            rng.next_below(n.num_flops())));
        const LaneMask mask = rng.next_u64();
        batch.flip_flop(f, mask);
        if (mask & 1u) scalar.flip_flop(f);
        for (std::size_t k = 0; k < kLanes.size(); ++k) {
          if ((mask >> kLanes[k]) & 1u) refs[k].flip_flop(f);
        }
      }
      std::vector<std::uint64_t> words(inputs.size());
      for (std::uint64_t& word : words) word = rng.next_u64();
      for (std::size_t k = 0; k < kLanes.size(); ++k) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          refs[k].set_input(inputs[i], (words[i] >> kLanes[k]) & 1u);
        }
        refs[k].eval();
      }
      const auto drive = [&] {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          batch.set_input(inputs[i], words[i]);
          scalar.set_input(inputs[i], words[i] & 1u);
        }
      };

      const std::uint64_t evals = batch.gate_evals();
      const std::uint64_t scalar_evals = scalar.gate_evals();
      const bool split = c % 2 == 0;
      if (split) {
        batch.eval_state();
        scalar.eval_state();
        for (const WireId w : n.all_wires()) {
          if (dependent[w.index()]) continue;
          for (std::size_t k = 0; k < kLanes.size(); ++k) {
            ASSERT_EQ((batch.value(w) >> kLanes[k]) & 1u,
                      static_cast<std::uint64_t>(refs[k].value(w)))
                << "seed " << seed << " cycle " << c << " state wire '"
                << n.wire(w).name << "' lane " << kLanes[k];
          }
        }
        drive();
        batch.eval_inputs();
        scalar.eval_inputs();
      } else {
        drive();
        batch.eval();
        scalar.eval();
      }
      EXPECT_EQ(batch.gate_evals() - evals, n.num_gates());
      EXPECT_EQ(scalar.gate_evals() - scalar_evals, n.num_gates());

      for (const WireId w : n.all_wires()) {
        for (std::size_t k = 0; k < kLanes.size(); ++k) {
          ASSERT_EQ((batch.value(w) >> kLanes[k]) & 1u,
                    static_cast<std::uint64_t>(refs[k].value(w)))
              << "seed " << seed << " cycle " << c << " wire '"
              << n.wire(w).name << "' lane " << kLanes[k]
              << (split ? " (split)" : " (eval)");
        }
      }
      ASSERT_EQ(scalar.values(), refs[0].values())
          << "seed " << seed << " cycle " << c;
      ASSERT_EQ(scalar.flop_state(), refs[0].flop_state());

      batch.latch();
      scalar.latch();
      for (ReferenceSimulator& ref : refs) ref.latch();
    }
  }
}

TEST(BatchSim, RequireStateOnlyRefusesAnInputDependentAddress) {
  // A toy harness netlist: "addr_ok" depends only on the flop, "addr_bad"
  // is a gate of the primary input "rdata" — a memory harness reading it
  // between the phases would see the previous cycle's value.
  Netlist n;
  const WireId rdata = n.add_input("rdata");
  const FlopId f = n.add_flop("pc", false);
  const WireId q = n.flop(f).q;
  const WireId ok = n.add_gate_new(Kind::Inv, {q}, "addr_ok");
  const WireId bad = n.add_gate_new(Kind::And2, {q, rdata}, "addr_bad");
  n.connect_flop(f, bad);
  n.mark_output(ok);
  n.mark_output(bad);

  BatchSimulator batch(n);
  EXPECT_NO_THROW(batch.require_state_only(Bus{q, ok}));
  try {
    batch.require_state_only(Bus{ok, bad});
    FAIL() << "input-dependent address accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'addr_bad'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(batch.require_state_only(Bus{rdata}), Error);
  const Simulator scalar(n);
  EXPECT_THROW(scalar.require_state_only(Bus{bad}), Error);
}

TEST(BatchSim, RequirePrimaryOutputRefusesAnInternalStrobe) {
  // A toy harness netlist whose write strobe "we" is an internal wire: the
  // data bus is a primary output, the strobe is not.
  Netlist n;
  const WireId rdata = n.add_input("rdata");
  const FlopId f = n.add_flop("acc", false);
  const WireId q = n.flop(f).q;
  const WireId wdata = n.add_gate_new(Kind::Xor2, {q, rdata}, "wdata");
  const WireId we = n.add_gate_new(Kind::Inv, {q}, "we");
  n.connect_flop(f, n.add_gate_new(Kind::And2, {wdata, we}, "acc_d"));
  n.mark_output(wdata);

  BatchSimulator batch(n);
  EXPECT_NO_THROW(batch.require_primary_output(Bus{wdata}));
  try {
    batch.require_primary_output(Bus{wdata, we});
    FAIL() << "internal strobe accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'we'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(batch.require_primary_output(Bus{q}), Error);
  const Simulator scalar(n);
  EXPECT_THROW(scalar.require_primary_output(Bus{we}), Error);
}

void expect_same_trace(const Trace& kernel, const Trace& reference,
                       std::size_t cycles, const char* core) {
  ASSERT_EQ(kernel.num_cycles(), cycles) << core;
  ASSERT_EQ(reference.num_cycles(), cycles) << core;
  for (std::size_t c = 0; c < cycles; ++c) {
    const BitVec& a = kernel.cycle_values(c);
    const BitVec& b = reference.cycle_values(c);
    ASSERT_EQ(a, b) << core << " cycle " << c << " first differing wire '"
                    << kernel.wire_name(a.first_difference(b)) << "'";
  }
}

TEST(BatchSim, CoreTracesMatchReferenceSimulator) {
  // Every trace — golden runs and streamed workloads alike — is recorded
  // from the workload the registry boots, on the compiled kernel; the
  // reference steps the same harness protocol (settle, serve memories,
  // settle) through per-bit truth-table evaluation.
  constexpr std::size_t kCycles = 2000;
  const pipeline::CoreRegistry& registry = pipeline::CoreRegistry::global();
  const auto booted_trace = [&](const pipeline::CoreRuntime& rt) {
    sim::Trace trace(*rt.netlist);
    rt.boot()->run_stream(kCycles, trace);
    return trace;
  };
  {
    const pipeline::CoreRuntime rt = registry.make("avr", "fib");
    expect_same_trace(
        booted_trace(rt),
        reference_avr_trace(*rt.netlist,
                            cores::avr::resolve_avr_ports(*rt.netlist),
                            cores::avr::workload_program("fib"), kCycles),
        kCycles, "avr");
  }
  {
    const pipeline::CoreRuntime rt = registry.make("msp430", "fib");
    expect_same_trace(
        booted_trace(rt),
        reference_msp430_trace(
            *rt.netlist, cores::msp430::resolve_msp430_ports(*rt.netlist),
            cores::msp430::workload_image("fib"), kCycles),
        kCycles, "msp430");
  }
}

TEST(BatchSim, FlipFlopMaskAndStateDivergence) {
  // A hold register: r' = r. Flipping lanes {3, 7} diverges exactly those
  // lanes from the golden lane 0; flipping them back reconverges.
  Netlist n;
  const FlopId f = n.add_flop("r", false);
  const WireId q = n.flop(f).q;
  n.connect_flop(f, q);
  n.mark_output(q);

  BatchSimulator sim(n);
  EXPECT_EQ(sim.state_divergence(0), 0u);

  const LaneMask faulty = (LaneMask{1} << 3) | (LaneMask{1} << 7);
  sim.flip_flop(f, faulty);
  EXPECT_EQ(sim.state_divergence(0), faulty);
  sim.eval();
  EXPECT_EQ(sim.value(q), faulty);

  sim.step(); // the hold loop keeps the fault alive
  EXPECT_EQ(sim.state_divergence(0), faulty);

  // Relative to a faulty lane, everyone else is the diverged one.
  EXPECT_EQ(sim.state_divergence(3), ~faulty);

  sim.flip_flop(f, faulty);
  EXPECT_EQ(sim.state_divergence(0), 0u);

  sim.flip_flop(f, LaneMask{1} << 5);
  sim.reset();
  EXPECT_EQ(sim.state_divergence(0), 0u);
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(BatchSim, BusHelpersRoundTripPerLane) {
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
  BatchSimulator sim(n);

  std::array<std::uint64_t, kBatchLanes> lane_values{};
  for (unsigned lane = 0; lane < kBatchLanes; ++lane) {
    lane_values[lane] = (0xa5u + lane * 3u) & 0xffu;
  }
  sim.drive_bus(in, lane_values);
  sim.eval();
  for (const unsigned lane : {0u, 1u, 42u, 63u}) {
    EXPECT_EQ(sim.read_bus(in, lane), lane_values[lane]);
    EXPECT_EQ(sim.read_bus(out, lane), (~lane_values[lane]) & 0xffu);
  }
  std::array<std::uint64_t, kBatchLanes> read_in{};
  std::array<std::uint64_t, kBatchLanes> read_out{};
  sim.read_bus_lanes(in, read_in);
  sim.read_bus_lanes(out, read_out);
  for (unsigned lane = 0; lane < kBatchLanes; ++lane) {
    EXPECT_EQ(read_in[lane], lane_values[lane]) << "lane " << lane;
    EXPECT_EQ(read_out[lane], (~lane_values[lane]) & 0xffu) << "lane " << lane;
  }

  sim.drive_bus_broadcast(in, 0x3c);
  sim.eval();
  for (const unsigned lane : {0u, 17u, 63u}) {
    EXPECT_EQ(sim.read_bus(in, lane), 0x3cu);
    EXPECT_EQ(sim.read_bus(out, lane), 0xc3u);
  }
}

TEST(BatchSim, ResetRestoresInitPerLane) {
  Netlist n;
  const FlopId f1 = n.add_flop("r1", true);
  const FlopId f0 = n.add_flop("r0", false);
  n.connect_flop(f1, n.flop(f1).q);
  n.connect_flop(f0, n.flop(f0).q);
  n.mark_output(n.flop(f1).q);
  n.mark_output(n.flop(f0).q);
  BatchSimulator sim(n);
  // init=true seeds all 64 lanes set, init=false all clear.
  EXPECT_EQ(sim.value(n.flop(f1).q), ~std::uint64_t{0});
  EXPECT_EQ(sim.value(n.flop(f0).q), 0u);
}

} // namespace
} // namespace ripple::sim
