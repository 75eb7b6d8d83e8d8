// Execution harness for the MSP430 core: unified word memory plus the
// memory-mapped output port at kIoBase and up.
#pragma once

#include <cstdint>
#include <vector>

#include "cores/msp430/assembler.hpp"
#include "cores/msp430/core.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ripple::cores::msp430 {

struct IoEvent {
  std::uint64_t cycle;
  std::uint16_t addr;
  std::uint16_t data;
  bool operator==(const IoEvent&) const = default;
};

class Msp430System {
public:
  /// `core` must outlive the system. The program image is copied into the
  /// start of memory.
  Msp430System(const Msp430Core& core, const Image& image);

  /// Simulate one clock cycle (settle the state, feed memory, settle the
  /// input fan-out, commit, clock), appending the cycle's settled wire
  /// values to `sink` when one is given.
  void step(sim::RowSink* sink = nullptr);

  /// Run for `cycles` cycles, pushing each cycle's settled wire values into
  /// `sink` (a whole sim::Trace or a chunk recorder).
  void run_stream(std::size_t cycles, sim::RowSink& sink);

  void run(std::size_t cycles);

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const Msp430Core& core() const { return *core_; }
  [[nodiscard]] const std::vector<IoEvent>& io_log() const { return io_log_; }

  /// Word-addressable memory (index = byte address / 2).
  [[nodiscard]] const std::vector<std::uint16_t>& memory() const {
    return memory_;
  }
  [[nodiscard]] std::vector<std::uint16_t>& memory() { return memory_; }

  /// Current fetch/access address; settles combinational logic first.
  [[nodiscard]] std::uint16_t mem_addr();

private:
  const Msp430Core* core_;
  std::vector<std::uint16_t> memory_; // 32k words = 64 KiB
  std::vector<IoEvent> io_log_;
  sim::Simulator sim_;
};

} // namespace ripple::cores::msp430
