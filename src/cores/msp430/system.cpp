#include "cores/msp430/system.hpp"

#include <algorithm>

namespace ripple::cores::msp430 {

Msp430System::Msp430System(const Msp430Core& core, const Image& image)
    : core_(&core), memory_(1u << 15, 0), sim_(core.netlist) {
  RIPPLE_CHECK(image.words.size() <= memory_.size(),
               "program image larger than memory");
  std::copy(image.words.begin(), image.words.end(), memory_.begin());
  sim_.require_state_only(core.ports.mem_addr);
}

void Msp430System::step(sim::RowSink* sink) {
  const Msp430Ports& p = core_->ports;

  // The address depends only on flop state: settle the state, serve the
  // word, then settle the input fan-out.
  sim_.eval_state();
  const std::uint16_t addr =
      static_cast<std::uint16_t>(sim_.read_bus(p.mem_addr));
  sim_.drive_bus(p.mem_rdata, memory_[(addr >> 1) & 0x7fff]);
  sim_.eval_inputs();

  if (sink != nullptr) sink->append_row(sim_.values());

  if (sim_.value(p.mem_we)) {
    const std::uint16_t wdata =
        static_cast<std::uint16_t>(sim_.read_bus(p.mem_wdata));
    if (addr >= kIoBase) {
      io_log_.push_back(IoEvent{sim_.cycle(), addr, wdata});
    } else {
      memory_[(addr >> 1) & 0x7fff] = wdata;
    }
  }
  sim_.latch();
}

void Msp430System::run_stream(std::size_t cycles, sim::RowSink& sink) {
  for (std::size_t c = 0; c < cycles; ++c) step(&sink);
}

void Msp430System::run(std::size_t cycles) {
  for (std::size_t c = 0; c < cycles; ++c) step();
}

std::uint16_t Msp430System::mem_addr() {
  sim_.eval();
  return static_cast<std::uint16_t>(sim_.read_bus(core_->ports.mem_addr));
}

} // namespace ripple::cores::msp430
