// 64-lane bit-parallel gate-level simulator (classic parallel-fault
// simulation) — the one gate-evaluation kernel of the library.
//
// The simulator keeps one uint64_t per wire: bit i of every word belongs to
// *lane* i, an independent experiment sharing the same netlist. One sweep
// through the combinational logic therefore evaluates 64 concurrent runs —
// the campaign engine packs one golden run plus up to 63 fault experiments
// into a word, so a single gate-level sweep retires a whole batch of
// injection points. The scalar Simulator (sim/simulator.hpp) is a lane-0
// view of this kernel.
//
// The constructor compiles the netlist once into a flat gate program (four
// input indices and an output index per gate, in runs of one opcode),
// split in two:
//   * state gates: every gate outside the fan-out of the primary inputs.
//     They depend only on flop Q values and ties.
//   * input gates: the primary-input fan-out.
// Each part is in topological order.
// A cycle is therefore two phases: eval_state() (flop Q values, then the
// state gates) and eval_inputs() (the input gates); eval() runs both. A
// memory harness settles the state, reads its address buses, drives the
// read data onto the primary inputs and settles the input fan-out, so each
// gate is evaluated exactly once per cycle. That is exact only when the
// address wires lie outside the input fan-out, which require_state_only()
// checks when the harness is built. Between the two phases input-gate
// wires still hold the previous settle's values.
//
// latch() is the rising clock edge; fault injection flips a flop's state in
// a lane mask, and state_divergence() reports — via one XOR-vs-golden-lane
// sweep over the flop words — which lanes have drifted from the golden lane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace ripple::sim {

/// A little-endian group of wires treated as one value (bit 0 = LSB).
using Bus = std::vector<WireId>;

/// Experiments evaluated per word; lane i = bit i of every wire word.
inline constexpr std::size_t kBatchLanes = 64;

/// Bit i = lane i.
using LaneMask = std::uint64_t;

class BatchSimulator {
public:
  explicit BatchSimulator(const netlist::Netlist& n);

  [[nodiscard]] const netlist::Netlist& netlist() const { return *netlist_; }

  // --- per-cycle protocol --------------------------------------------------

  /// Drive a primary input with per-lane values (bit i = lane i's value).
  void set_input(WireId w, std::uint64_t lanes);

  /// Phase 1: flop state onto the Q wires, then every gate outside the
  /// primary-input fan-out.
  void eval_state();
  /// Phase 2: the primary-input fan-out, from the current inputs.
  void eval_inputs();
  /// Settle every wire: both phases in turn.
  void eval() {
    eval_state();
    eval_inputs();
  }
  void latch();

  void step() {
    eval();
    latch();
  }

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }

  /// Reset all flops of every lane to their init values, clear the cycle
  /// counter and settle. Inputs keep their last driven values.
  void reset();

  /// Load every flop's state word (FlopId order) and set the cycle counter:
  /// a run resumed mid-way from a saved state. Like flip_flop, it takes
  /// effect at the next eval_state(), so it evaluates no gate.
  void load_state(std::span<const std::uint64_t> flops, std::uint64_t cycle);

  /// Gate evaluations so far: each phase call adds its gate count.
  [[nodiscard]] std::uint64_t gate_evals() const { return gate_evals_; }

  /// Throws ripple::Error, naming the wire, when a wire of `bus` lies in the
  /// primary-input fan-out, i.e. is not settled by eval_state() alone. Memory
  /// harnesses call it on the buses they read between the two phases.
  void require_state_only(const Bus& bus) const;

  /// Throws ripple::Error, naming the wire, when a wire of `bus` is not a
  /// primary output. Harnesses call it on every bus and strobe they read:
  /// the confinement labels (hafi/confine.hpp) compare only primary outputs
  /// against the golden run.
  void require_primary_output(const Bus& bus) const;

  // --- observation ---------------------------------------------------------

  /// The wire's word: bit i = lane i's value.
  [[nodiscard]] std::uint64_t value(WireId w) const {
    RIPPLE_ASSERT(w.index() < values_.size());
    return values_[w.index()];
  }

  /// Every wire's word, indexed by WireId.
  [[nodiscard]] std::span<const std::uint64_t> values() const {
    return values_;
  }

  /// Read a bus as seen by one lane (little-endian).
  [[nodiscard]] std::uint64_t read_bus(const Bus& bus, unsigned lane) const;

  /// Read a bus in every lane at once: lane_values[i] = lane i's bus value.
  /// One 64x64 bit transpose instead of 64 x bus-width bit reads.
  void read_bus_lanes(const Bus& bus,
                      std::span<std::uint64_t> lane_values) const;

  /// Drive a bus with per-lane values: lane_values[i] is lane i's bus value.
  /// Transposes the 64 values into one word per bus wire.
  void drive_bus(const Bus& bus,
                 std::span<const std::uint64_t> lane_values);

  /// Drive every lane of a bus with the same value.
  void drive_bus_broadcast(const Bus& bus, std::uint64_t v);

  // --- flop state and fault injection --------------------------------------

  /// The flop's state word (bit i = lane i's state).
  [[nodiscard]] std::uint64_t flop(FlopId f) const {
    RIPPLE_ASSERT(f.index() < state_.size());
    return state_[f.index()];
  }
  void set_flop(FlopId f, std::uint64_t lanes) {
    RIPPLE_ASSERT(f.index() < state_.size());
    state_[f.index()] = lanes;
  }

  /// Flip the state bit of one flop in every lane of `lanes` (per-lane SEU
  /// injection mask). Takes effect at the next eval_state().
  void flip_flop(FlopId f, LaneMask lanes) {
    RIPPLE_ASSERT(f.index() < state_.size());
    state_[f.index()] ^= lanes;
  }

  // --- divergence detection ------------------------------------------------

  /// Lanes whose flop state differs from `golden_lane`'s in at least one
  /// flop: one XOR against the broadcast golden bit per flop word, OR-folded
  /// into a lane mask. Bit `golden_lane` of the result is always 0.
  [[nodiscard]] LaneMask state_divergence(unsigned golden_lane) const;

private:
  /// The cell kinds fold onto nine word operations: an op reads all four
  /// input slots, and a narrower cell repeats its last input in the slots
  /// it does not use (And2(a, b) = And(a, b, b, b), Aoi21(a, b, c) =
  /// Aoi(a, b, c, c)); ties are Xor/Xnor of wire 0 with itself.
  enum class Opcode : std::uint8_t {
    And, Nand, Or, Nor, Xor, Xnor, Mux, Aoi, Oai
  };

  /// One compiled gate: wire indices of its input slots and its output.
  struct Op {
    std::uint32_t in[cell::kMaxInputs];
    std::uint32_t out;
  };

  /// A run of program ops sharing one opcode, ending before op `end`.
  struct Segment {
    Opcode code;
    std::uint32_t end;
  };

  void run(std::size_t first_segment, std::size_t last_segment);

  const netlist::Netlist* netlist_;
  std::vector<Op> program_;           // state gates, then input gates
  std::vector<Segment> segments_;     // program_ split into opcode runs
  std::size_t num_state_segments_ = 0; // segments_[0, n) = state gates
  std::vector<std::uint32_t> flop_q_; // per flop: Q wire index
  std::vector<std::uint32_t> flop_d_; // per flop: D wire index
  std::vector<bool> input_dependent_; // per wire: in the input fan-out
  std::vector<std::uint64_t> values_; // one word per wire
  std::vector<std::uint64_t> state_;  // one word per flop
  std::uint64_t cycle_ = 0;
  std::uint64_t gate_evals_ = 0;
};

} // namespace ripple::sim
