// The per-bit reference gate simulator: the oracle the one production gate
// kernel (sim::BatchSimulator, and the scalar sim::Simulator that views its
// lane 0) is checked against.
//
// It keeps one bit per wire and evaluates every gate by a truth-table lookup
// in cell::Library, one gate at a time in levelized order, and settles the
// whole netlist on every eval() — no compiled program, no opcode folding,
// no phase split. The core harnesses below step the built-in cores the same
// way: settle, serve the memories, settle again.
#pragma once

#include <cstdint>
#include <vector>

#include "cores/avr/assembler.hpp"
#include "cores/avr/core.hpp"
#include "cores/msp430/assembler.hpp"
#include "cores/msp430/core.hpp"
#include "netlist/netlist.hpp"
#include "sim/batch.hpp"
#include "sim/levelize.hpp"
#include "sim/trace.hpp"
#include "util/bitvec.hpp"

namespace ripple::sim {

class ReferenceSimulator {
public:
  explicit ReferenceSimulator(const netlist::Netlist& n);

  [[nodiscard]] const netlist::Netlist& netlist() const { return *netlist_; }

  void set_input(WireId w, bool v);
  /// Settle every wire from the flop state and the current inputs.
  void eval();
  /// Rising clock edge: every flop takes its D value.
  void latch();
  /// Flop init values, cycle 0, settled.
  void reset();
  /// Flip one flop's state bit (an SEU); call eval() afterwards.
  void flip_flop(FlopId f);

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  [[nodiscard]] bool value(WireId w) const { return values_.get(w.index()); }
  [[nodiscard]] std::uint64_t read_bus(const Bus& bus) const;
  void drive_bus(const Bus& bus, std::uint64_t v);
  [[nodiscard]] const BitVec& values() const { return values_; }
  [[nodiscard]] BitVec flop_state() const;

private:
  const netlist::Netlist* netlist_;
  Levelization level_;
  BitVec values_;            // per-wire settled values
  std::vector<bool> state_;  // per-flop current state
  std::uint64_t cycle_ = 0;
};

/// `cycles` cycles of the AVR system (instruction and data memory, stores
/// committed) stepped through the reference simulator, one settled row per
/// cycle: what cores::avr::AvrSystem::run_trace records.
[[nodiscard]] Trace reference_avr_trace(const netlist::Netlist& n,
                                        const cores::avr::AvrPorts& ports,
                                        const cores::avr::Program& program,
                                        std::size_t cycles);

/// The same for the MSP430 system (unified word memory, stores below
/// kIoBase committed).
[[nodiscard]] Trace reference_msp430_trace(
    const netlist::Netlist& n, const cores::msp430::Msp430Ports& ports,
    const cores::msp430::Image& image, std::size_t cycles);

} // namespace ripple::sim
