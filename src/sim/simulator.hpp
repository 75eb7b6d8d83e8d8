// Cycle-accurate two-phase gate-level simulator: one run of a netlist.
//
// Phase 1 (eval): propagate primary inputs and flop state through the
// levelized combinational logic until all wires are settled.
// Phase 2 (latch): capture every flop's D value into its state; this is the
// rising clock edge and advances the cycle counter.
//
// The Simulator is a lane-0 view of the 64-lane BatchSimulator kernel: every
// input, flop write and fault is broadcast to all lanes, and values() packs
// lane 0 into a BitVec on demand. eval() splits like the kernel's:
// eval_state() settles everything outside the primary-input fan-out and
// eval_inputs() the rest. The memory harnesses model combinational-read
// memories outside the netlist with exactly that split — eval_state(), read
// the address outputs, drive the read data, eval_inputs() — after checking
// with require_state_only() that no address wire depends on an input. A
// plain eval() after changing inputs also settles every wire, and eval()
// is idempotent.
//
// Fault injection: flip_flop() flips one bit of the *state*, exactly the SEU
// of the paper's fault model. After a flip, call eval() to propagate.
#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"
#include "sim/batch.hpp"
#include "util/bitvec.hpp"

namespace ripple::sim {

class Simulator {
public:
  explicit Simulator(const netlist::Netlist& n);

  [[nodiscard]] const netlist::Netlist& netlist() const {
    return kernel_.netlist();
  }

  // --- per-cycle protocol --------------------------------------------------

  void set_input(WireId w, bool v) { kernel_.set_input(w, broadcast(v)); }
  void eval_state() { kernel_.eval_state(); }
  void eval_inputs() { kernel_.eval_inputs(); }
  void eval() { kernel_.eval(); }
  void latch() { kernel_.latch(); }

  /// Convenience for circuits without external-memory feedback.
  void step() {
    eval();
    latch();
  }

  [[nodiscard]] std::uint64_t cycle() const { return kernel_.cycle(); }

  /// Reset all flops to their init values, clear the cycle counter and
  /// settle. Inputs keep their last driven values.
  void reset() { kernel_.reset(); }

  /// Gate evaluations so far (see BatchSimulator::gate_evals).
  [[nodiscard]] std::uint64_t gate_evals() const {
    return kernel_.gate_evals();
  }

  /// See BatchSimulator::require_state_only.
  void require_state_only(const Bus& bus) const {
    kernel_.require_state_only(bus);
  }
  /// See BatchSimulator::require_primary_output.
  void require_primary_output(const Bus& bus) const {
    kernel_.require_primary_output(bus);
  }

  // --- observation ---------------------------------------------------------

  [[nodiscard]] bool value(WireId w) const { return kernel_.value(w) & 1u; }

  [[nodiscard]] std::uint64_t read_bus(const Bus& bus) const {
    return kernel_.read_bus(bus, 0);
  }
  void drive_bus(const Bus& bus, std::uint64_t v) {
    kernel_.drive_bus_broadcast(bus, v);
  }

  /// Snapshot of every wire value (valid after eval()), packed from the
  /// kernel's lane 0 on each call.
  [[nodiscard]] const BitVec& values() const;

  /// Current flop state, one bit per flop in FlopId order.
  [[nodiscard]] BitVec flop_state() const;
  void set_flop_state(const BitVec& state);

  // --- fault injection ------------------------------------------------------

  /// Flip the state bit of one flop (an SEU). Call eval() afterwards.
  void flip_flop(FlopId f) { kernel_.flip_flop(f, ~LaneMask{0}); }

private:
  static std::uint64_t broadcast(bool v) { return v ? ~std::uint64_t{0} : 0; }

  BatchSimulator kernel_;
  mutable BitVec values_; // lane-0 pack buffer of values()
};

} // namespace ripple::sim
