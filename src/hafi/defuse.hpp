// ISA-level def-use fault pruning for the AVR register file (the paper's
// Section 6.3: software-based techniques "take over at ISA level" for
// register/memory faults that intra-cycle MATEs cannot catch).
//
// Idea (Relyzer-style): an SEU in register r at cycle t is benign if, in the
// architectural instruction stream, the next access to r is a full overwrite
// (def) — the corrupted value dies before anybody reads (uses) it.
//
// Timing model of our 2-stage core:
//   * operand reads happen in the IF stage, one cycle before the
//     instruction's EX cycle (the operand-capture latches sample then);
//   * the X-pointer (r26) is read combinationally during the EX cycle of
//     LD/ST instructions;
//   * the destination register is written at the end of the EX cycle.
// A fault at cycle t is read by accesses at cycles >= t and killed by the
// first pure write at a cycle >= t.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cores/avr/core.hpp"
#include "sim/transposed.hpp"

namespace ripple::hafi {

/// Architectural register accesses attributed to clock cycles.
///
/// Two read classes with different bypass behaviour:
///  * capture reads (operand fetch in IF) are satisfied by the EX->IF
///    forwarding path when the same cycle writes the register — they do NOT
///    observe the old register value in that case;
///  * direct reads (the X pointer during LD/ST EX) always observe the
///    register file.
struct AvrRegAccesses {
  std::vector<std::array<bool, 32>> reads_capture;
  std::vector<std::array<bool, 32>> reads_direct;
  /// [cycle][reg]: register reg is fully overwritten at this cycle.
  std::vector<std::array<bool, 32>> writes;
};

/// Reconstruct the access stream from a recorded wire-level trace of the
/// AVR core (decodes the EX-stage instruction register per cycle).
[[nodiscard]] AvrRegAccesses analyze_avr_accesses(
    const netlist::Netlist& core_netlist, const sim::TransposedTrace& trace);

/// Same analysis for the MSP430 core. The multi-cycle FSM reads registers
/// combinationally in the cycle that consumes them (DECODE operand latch,
/// EXT-state base addressing, SRC_READ auto-increment, EXEC destination
/// read) — there is no forwarding, so every read is a *direct* read; only
/// MOV-to-register and the Format II result write are pure overwrites.
/// Registers are numbered architecturally (r0..r15; only r1, r3..r15 carry
/// state in this core).
[[nodiscard]] AvrRegAccesses analyze_msp430_accesses(
    const netlist::Netlist& core_netlist, const sim::TransposedTrace& trace);

struct DefUseResult {
  /// [reg][cycle]: a fault in any bit of reg at this cycle dies before use.
  std::vector<std::vector<bool>> benign;
  std::size_t benign_points = 0; // summed over regs x cycles
  std::size_t fault_space = 0;

  [[nodiscard]] double benign_fraction() const {
    return fault_space == 0 ? 0.0
                            : static_cast<double>(benign_points) /
                                  static_cast<double>(fault_space);
  }
};

/// Def-use analysis over the whole trace. Conservative at the trace end: a
/// register without a further access is *not* proven benign.
[[nodiscard]] DefUseResult defuse_prune(const AvrRegAccesses& accesses);

} // namespace ripple::hafi
