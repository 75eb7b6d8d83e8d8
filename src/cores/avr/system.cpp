#include "cores/avr/system.hpp"

namespace ripple::cores::avr {

AvrSystem::AvrSystem(const AvrCore& core, const Program& program)
    : core_(&core), imem_(program.words), sim_(core.netlist) {
  const AvrPorts& p = core.ports;
  sim_.require_state_only(p.imem_addr);
  sim_.require_state_only(p.dmem_addr);
  for (const sim::Bus& bus :
       {p.imem_addr, p.dmem_addr, p.dmem_wdata, sim::Bus{p.dmem_we},
        p.io_addr, p.io_data, sim::Bus{p.io_we}}) {
    sim_.require_primary_output(bus);
  }
}

void AvrSystem::step(sim::RowSink* sink) {
  const AvrPorts& p = core_->ports;

  // Fetch and data addresses depend only on flop state: settle the state,
  // serve both memories, then settle the input fan-out.
  sim_.eval_state();
  const std::uint64_t pc = sim_.read_bus(p.imem_addr);
  sim_.drive_bus(p.instr, pc < imem_.size() ? imem_[pc] : 0 /* NOP */);
  const std::uint64_t daddr = sim_.read_bus(p.dmem_addr);
  sim_.drive_bus(p.dmem_rdata, dmem_[daddr]);
  sim_.eval_inputs();

  if (sink != nullptr) sink->append_row(sim_.values());

  if (sim_.value(p.dmem_we)) {
    dmem_[daddr] = static_cast<std::uint8_t>(sim_.read_bus(p.dmem_wdata));
  }
  if (sim_.value(p.io_we)) {
    io_log_.push_back(IoEvent{
        sim_.cycle(), static_cast<std::uint8_t>(sim_.read_bus(p.io_addr)),
        static_cast<std::uint8_t>(sim_.read_bus(p.io_data))});
  }
  sim_.latch();
}

void AvrSystem::run_stream(std::size_t cycles, sim::RowSink& sink) {
  for (std::size_t c = 0; c < cycles; ++c) step(&sink);
}

void AvrSystem::run(std::size_t cycles) {
  for (std::size_t c = 0; c < cycles; ++c) step();
}

std::uint16_t AvrSystem::pc() {
  sim_.eval();
  return static_cast<std::uint16_t>(sim_.read_bus(core_->ports.imem_addr));
}

} // namespace ripple::cores::avr
