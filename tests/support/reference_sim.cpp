#include "support/reference_sim.hpp"

#include <algorithm>
#include <array>

#include "cell/library.hpp"

namespace ripple::sim {

using netlist::DriverKind;
using netlist::Netlist;

ReferenceSimulator::ReferenceSimulator(const Netlist& n)
    : netlist_(&n), level_(levelize(n)), values_(n.num_wires()) {
  state_.resize(n.num_flops());
  reset();
}

void ReferenceSimulator::reset() {
  for (FlopId f : netlist_->all_flops()) {
    state_[f.index()] = netlist_->flop(f).init;
  }
  cycle_ = 0;
  eval();
}

void ReferenceSimulator::set_input(WireId w, bool v) {
  RIPPLE_ASSERT(netlist_->wire(w).driver_kind == DriverKind::PrimaryInput,
                "set_input on non-input wire '", netlist_->wire(w).name, "'");
  values_.set(w.index(), v);
}

void ReferenceSimulator::eval() {
  for (FlopId f : netlist_->all_flops()) {
    values_.set(netlist_->flop(f).q.index(), state_[f.index()]);
  }
  const cell::Library& lib = cell::Library::instance();
  for (GateId g : level_.order) {
    const netlist::Gate& gate = netlist_->gate(g);
    std::uint32_t packed = 0;
    for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
      packed |= static_cast<std::uint32_t>(
                    values_.get(gate.inputs[p].index()))
                << p;
    }
    values_.set(gate.output.index(), lib.eval(gate.kind, packed));
  }
}

void ReferenceSimulator::latch() {
  for (FlopId f : netlist_->all_flops()) {
    state_[f.index()] = values_.get(netlist_->flop(f).d.index());
  }
  ++cycle_;
}

void ReferenceSimulator::flip_flop(FlopId f) {
  RIPPLE_ASSERT(f.index() < state_.size());
  state_[f.index()] = !state_[f.index()];
}

void ReferenceSimulator::load(const BitVec& row) {
  RIPPLE_ASSERT(row.size() == netlist_->num_wires());
  for (FlopId f : netlist_->all_flops()) {
    state_[f.index()] = row.get(netlist_->flop(f).q.index());
  }
  for (WireId w : netlist_->primary_inputs()) {
    values_.set(w.index(), row.get(w.index()));
  }
}

std::uint64_t ReferenceSimulator::read_bus(const Bus& bus) const {
  RIPPLE_ASSERT(bus.size() <= 64);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= static_cast<std::uint64_t>(value(bus[i])) << i;
  }
  return v;
}

void ReferenceSimulator::drive_bus(const Bus& bus, std::uint64_t v) {
  RIPPLE_ASSERT(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    set_input(bus[i], (v >> i) & 1u);
  }
}

BitVec ReferenceSimulator::flop_state() const {
  BitVec s(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) s.set(i, state_[i]);
  return s;
}

Trace reference_random_trace(const Netlist& n, Rng& rng,
                             std::size_t cycles) {
  ReferenceSimulator sim(n);
  Trace trace(n);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (WireId w : n.primary_inputs()) sim.set_input(w, rng.next_bool());
    sim.eval();
    trace.append_row(sim.values());
    sim.latch();
  }
  return trace;
}

std::vector<BitVec> reference_masked_masks(
    const Netlist& n, const Trace& trace,
    std::span<const std::vector<FlopId>> groups) {
  std::vector<WireId> observed(n.primary_outputs().begin(),
                               n.primary_outputs().end());
  for (FlopId f : n.all_flops()) observed.push_back(n.flop(f).d);

  std::vector<BitVec> masks(groups.size(), BitVec(trace.num_cycles()));
  ReferenceSimulator sim(n);
  for (std::size_t t = 0; t < trace.num_cycles(); ++t) {
    const BitVec& golden = trace.cycle_values(t);
    sim.load(golden);
    sim.eval();
    RIPPLE_CHECK(sim.values() == golden, "trace row ", t,
                 " is not the settled state of its flops and inputs");
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (FlopId f : groups[g]) sim.flip_flop(f);
      sim.eval();
      masks[g].set(t, std::all_of(observed.begin(), observed.end(),
                                  [&](WireId w) {
                                    return sim.value(w) ==
                                           golden.get(w.index());
                                  }));
      for (FlopId f : groups[g]) sim.flip_flop(f); // restore
    }
  }
  return masks;
}

Trace reference_avr_trace(const Netlist& n, const cores::avr::AvrPorts& p,
                          const cores::avr::Program& program,
                          std::size_t cycles) {
  ReferenceSimulator sim(n);
  std::array<std::uint8_t, 256> dmem{};
  Trace trace(n);
  for (std::size_t c = 0; c < cycles; ++c) {
    sim.eval();
    const std::uint64_t pc = sim.read_bus(p.imem_addr);
    sim.drive_bus(p.instr, pc < program.words.size() ? program.words[pc] : 0);
    const std::uint64_t daddr = sim.read_bus(p.dmem_addr);
    sim.drive_bus(p.dmem_rdata, dmem[daddr]);
    sim.eval();
    trace.append_row(sim.values());
    if (sim.value(p.dmem_we)) {
      dmem[daddr] = static_cast<std::uint8_t>(sim.read_bus(p.dmem_wdata));
    }
    sim.latch();
  }
  return trace;
}

Trace reference_msp430_trace(const Netlist& n,
                             const cores::msp430::Msp430Ports& p,
                             const cores::msp430::Image& image,
                             std::size_t cycles) {
  ReferenceSimulator sim(n);
  std::vector<std::uint16_t> memory(1u << 15, 0);
  std::copy(image.words.begin(), image.words.end(), memory.begin());
  Trace trace(n);
  for (std::size_t c = 0; c < cycles; ++c) {
    sim.eval();
    const auto addr = static_cast<std::uint16_t>(sim.read_bus(p.mem_addr));
    sim.drive_bus(p.mem_rdata, memory[(addr >> 1) & 0x7fff]);
    sim.eval();
    trace.append_row(sim.values());
    if (sim.value(p.mem_we) && addr < cores::msp430::kIoBase) {
      memory[(addr >> 1) & 0x7fff] =
          static_cast<std::uint16_t>(sim.read_bus(p.mem_wdata));
    }
    sim.latch();
  }
  return trace;
}

} // namespace ripple::sim
