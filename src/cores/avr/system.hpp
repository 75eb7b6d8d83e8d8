// Execution harness: the AVR core netlist plus external instruction/data
// memory and the I/O port log. Plays the role of the paper's netlist
// simulation testbench and produces the wire-level traces for MATE work.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cores/avr/assembler.hpp"
#include "cores/avr/core.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ripple::sim {
class RowSink;
} // namespace ripple::sim

namespace ripple::cores::avr {

struct IoEvent {
  std::uint64_t cycle;
  std::uint8_t addr;
  std::uint8_t data;
  bool operator==(const IoEvent&) const = default;
};

class AvrSystem {
public:
  /// `core` must outlive the system.
  AvrSystem(const AvrCore& core, const Program& program);

  /// Simulate one clock cycle: settle the state, feed memories, settle the
  /// input fan-out, commit stores and I/O, clock. When `trace` is given, the
  /// settled wire values of the cycle are appended first.
  void step(sim::Trace* trace = nullptr);

  /// Run for `cycles` cycles and record the wire-level trace.
  [[nodiscard]] sim::Trace run_trace(std::size_t cycles);

  /// Run for `cycles` cycles, pushing each cycle's settled wire values into
  /// `sink` (the streaming trace path: a ChunkedTraceRecorder keeps only one
  /// chunk resident instead of the whole trace).
  void run_stream(std::size_t cycles, sim::RowSink& sink);

  /// Run without tracing (faster; used by fault-injection campaigns).
  void run(std::size_t cycles);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const AvrCore& core() const { return *core_; }

  [[nodiscard]] const std::vector<IoEvent>& io_log() const { return io_log_; }
  [[nodiscard]] const std::array<std::uint8_t, 256>& dmem() const {
    return dmem_;
  }
  [[nodiscard]] std::array<std::uint8_t, 256>& dmem() { return dmem_; }

  /// Current program counter (the next fetch address); settles the
  /// combinational logic first.
  [[nodiscard]] std::uint16_t pc();

private:
  void step_into(sim::Trace* trace, sim::RowSink* sink);

  const AvrCore* core_;
  std::vector<std::uint16_t> imem_;
  std::array<std::uint8_t, 256> dmem_{};
  std::vector<IoEvent> io_log_;
  sim::Simulator sim_;
};

} // namespace ripple::cores::avr
