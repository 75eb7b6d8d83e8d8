#include "sim/batch.hpp"

#include <algorithm>

#include "sim/levelize.hpp"
#include "sim/transposed.hpp"

namespace ripple::sim {

using netlist::DriverKind;
using netlist::Netlist;

namespace {

template <typename Fn>
void sweep(const auto* op, const auto* last, std::uint64_t* v, Fn fn) {
  for (; op != last; ++op) {
    v[op->out] = fn(v[op->in[0]], v[op->in[1]], v[op->in[2]], v[op->in[3]]);
  }
}

} // namespace

BatchSimulator::BatchSimulator(const Netlist& n)
    : netlist_(&n), input_dependent_(n.num_wires(), false),
      values_(n.num_wires(), 0), state_(n.num_flops(), 0) {
  const Levelization level = levelize(n);

  // The primary-input fan-out: level order is topological, so one pass
  // marks every gate reading a marked wire.
  for (const WireId w : n.primary_inputs()) input_dependent_[w.index()] = true;
  for (const GateId g : level.order) {
    const netlist::Gate& gate = n.gate(g);
    bool dependent = false;
    for (const WireId in : gate.inputs) {
      dependent = dependent || input_dependent_[in.index()];
    }
    input_dependent_[gate.output.index()] = dependent;
  }
  const auto phase = [&](GateId g) {
    return input_dependent_[n.gate(g).output.index()];
  };

  using Kind = cell::Kind;
  std::vector<Opcode> code(n.num_gates());
  // Per gate: drivers in the same phase not yet scheduled. A state gate
  // never reads an input-fan-out wire, so the state phase settles first.
  std::vector<std::uint32_t> pending(n.num_gates(), 0);
  for (const GateId g : n.all_gates()) {
    const netlist::Gate& gate = n.gate(g);
    switch (gate.kind) {
      case Kind::Tie0: code[g.index()] = Opcode::Xor; break;
      case Kind::Tie1: code[g.index()] = Opcode::Xnor; break;
      case Kind::Buf:
      case Kind::And2:
      case Kind::And3:
      case Kind::And4: code[g.index()] = Opcode::And; break;
      case Kind::Inv:
      case Kind::Nand2:
      case Kind::Nand3:
      case Kind::Nand4: code[g.index()] = Opcode::Nand; break;
      case Kind::Or2:
      case Kind::Or3:
      case Kind::Or4: code[g.index()] = Opcode::Or; break;
      case Kind::Nor2:
      case Kind::Nor3:
      case Kind::Nor4: code[g.index()] = Opcode::Nor; break;
      case Kind::Xor2: code[g.index()] = Opcode::Xor; break;
      case Kind::Xnor2: code[g.index()] = Opcode::Xnor; break;
      case Kind::Mux2: code[g.index()] = Opcode::Mux; break;
      case Kind::Aoi21:
      case Kind::Aoi22: code[g.index()] = Opcode::Aoi; break;
      case Kind::Oai21:
      case Kind::Oai22: code[g.index()] = Opcode::Oai; break;
      case Kind::Dff: RIPPLE_UNREACHABLE("flop in the gate table");
    }
    for (const WireId in : gate.inputs) {
      const netlist::Wire& w = n.wire(in);
      if (w.driver_kind == DriverKind::Gate &&
          phase(w.driver_gate) == phase(g)) {
        ++pending[g.index()];
      }
    }
  }

  // Schedule each phase topologically, staying on one opcode for as long as
  // a gate of it is ready, then switching to the opcode with the most ready
  // gates: long runs keep the sweep's dispatch to one branch per run.
  constexpr std::size_t kOpcodes = static_cast<std::size_t>(Opcode::Oai) + 1;
  for (const bool input_phase : {false, true}) {
    std::vector<GateId> ready[kOpcodes];
    for (const GateId g : n.all_gates()) {
      if (phase(g) == input_phase && pending[g.index()] == 0) {
        ready[static_cast<std::size_t>(code[g.index()])].push_back(g);
      }
    }
    std::size_t current = kOpcodes; // no run open yet
    while (true) {
      if (current == kOpcodes || ready[current].empty()) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < kOpcodes; ++c) {
          if (ready[c].size() > ready[best].size()) best = c;
        }
        if (ready[best].empty()) break;
        current = best;
        segments_.push_back(Segment{static_cast<Opcode>(current), 0});
      }
      const GateId g = ready[current].back();
      ready[current].pop_back();
      const netlist::Gate& gate = n.gate(g);
      Op op{};
      for (std::size_t p = 0; p < cell::kMaxInputs; ++p) {
        op.in[p] = gate.inputs.empty()
                       ? 0
                       : static_cast<std::uint32_t>(
                             gate.inputs[std::min(p, gate.inputs.size() - 1)]
                                 .index());
      }
      op.out = static_cast<std::uint32_t>(gate.output.index());
      program_.push_back(op);
      segments_.back().end = static_cast<std::uint32_t>(program_.size());
      for (const GateId reader : n.wire(gate.output).gate_fanout) {
        if (phase(reader) == input_phase && --pending[reader.index()] == 0) {
          ready[static_cast<std::size_t>(code[reader.index()])].push_back(
              reader);
        }
      }
    }
    if (!input_phase) num_state_segments_ = segments_.size();
  }
  RIPPLE_ASSERT(program_.size() == n.num_gates());

  flop_q_.reserve(n.num_flops());
  flop_d_.reserve(n.num_flops());
  for (const FlopId f : n.all_flops()) {
    flop_q_.push_back(static_cast<std::uint32_t>(n.flop(f).q.index()));
    flop_d_.push_back(static_cast<std::uint32_t>(n.flop(f).d.index()));
  }
  reset();
}

void BatchSimulator::reset() {
  for (const FlopId f : netlist_->all_flops()) {
    state_[f.index()] = netlist_->flop(f).init ? ~std::uint64_t{0} : 0;
  }
  cycle_ = 0;
  eval();
}

void BatchSimulator::load_state(std::span<const std::uint64_t> flops,
                                std::uint64_t cycle) {
  RIPPLE_CHECK(flops.size() == state_.size(), "state of ", flops.size(),
               " flops loaded into a netlist of ", state_.size());
  std::copy(flops.begin(), flops.end(), state_.begin());
  cycle_ = cycle;
}

void BatchSimulator::set_input(WireId w, std::uint64_t lanes) {
  RIPPLE_ASSERT(netlist_->wire(w).driver_kind == DriverKind::PrimaryInput,
                "set_input on non-input wire '", netlist_->wire(w).name, "'");
  values_[w.index()] = lanes;
}

void BatchSimulator::run(std::size_t first_segment,
                         std::size_t last_segment) {
  // Every op is its cell's truth function lifted to bitwise word ops, so
  // all 64 lanes evaluate at once. Pin order matches cell::Info::pins (Mux2
  // is S,A,B). batch_sim_test checks every kind against the truth tables.
  using W = std::uint64_t;
  std::uint64_t* v = values_.data();
  std::size_t begin =
      first_segment == 0 ? 0 : segments_[first_segment - 1].end;
  for (std::size_t s = first_segment; s < last_segment; ++s) {
    const Op* op = program_.data() + begin;
    const Op* last = program_.data() + segments_[s].end;
    switch (segments_[s].code) {
      case Opcode::And:
        sweep(op, last, v, [](W a, W b, W c, W d) { return a & b & c & d; });
        break;
      case Opcode::Nand:
        sweep(op, last, v,
              [](W a, W b, W c, W d) { return ~(a & b & c & d); });
        break;
      case Opcode::Or:
        sweep(op, last, v, [](W a, W b, W c, W d) { return a | b | c | d; });
        break;
      case Opcode::Nor:
        sweep(op, last, v,
              [](W a, W b, W c, W d) { return ~(a | b | c | d); });
        break;
      case Opcode::Xor:
        sweep(op, last, v, [](W a, W b, W, W) { return a ^ b; });
        break;
      case Opcode::Xnor:
        sweep(op, last, v, [](W a, W b, W, W) { return ~(a ^ b); });
        break;
      case Opcode::Mux:
        sweep(op, last, v,
              [](W a, W b, W c, W) { return (a & c) | (~a & b); });
        break;
      case Opcode::Aoi:
        sweep(op, last, v,
              [](W a, W b, W c, W d) { return ~((a & b) | (c & d)); });
        break;
      case Opcode::Oai:
        sweep(op, last, v,
              [](W a, W b, W c, W d) { return ~((a | b) & (c | d)); });
        break;
    }
    gate_evals_ += segments_[s].end - begin;
    begin = segments_[s].end;
  }
}

void BatchSimulator::eval_state() {
  for (std::size_t f = 0; f < flop_q_.size(); ++f) {
    values_[flop_q_[f]] = state_[f];
  }
  run(0, num_state_segments_);
}

void BatchSimulator::eval_inputs() {
  run(num_state_segments_, segments_.size());
}

void BatchSimulator::latch() {
  for (std::size_t f = 0; f < flop_d_.size(); ++f) {
    state_[f] = values_[flop_d_[f]];
  }
  ++cycle_;
}

void BatchSimulator::require_state_only(const Bus& bus) const {
  for (const WireId w : bus) {
    RIPPLE_CHECK(!input_dependent_[w.index()], "wire '",
                 netlist_->wire(w).name,
                 "' lies in the primary-input fan-out, so it is not settled "
                 "before the read data is driven");
  }
}

void BatchSimulator::require_primary_output(const Bus& bus) const {
  for (const WireId w : bus) {
    RIPPLE_CHECK(netlist_->wire(w).is_primary_output, "wire '",
                 netlist_->wire(w).name,
                 "' is read by the harness but is no primary output");
  }
}

std::uint64_t BatchSimulator::read_bus(const Bus& bus, unsigned lane) const {
  RIPPLE_ASSERT(bus.size() <= 64 && lane < kBatchLanes);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    v |= ((values_[bus[i].index()] >> lane) & 1u) << i;
  }
  return v;
}

// transpose64 maps row r, bit b to row 63 - b, bit 63 - r, so both bus
// helpers load their rows reversed and read the result reversed.

void BatchSimulator::read_bus_lanes(
    const Bus& bus, std::span<std::uint64_t> lane_values) const {
  RIPPLE_ASSERT(bus.size() <= 64 && lane_values.size() == kBatchLanes);
  std::uint64_t x[64] = {};
  for (std::size_t i = 0; i < bus.size(); ++i) {
    x[63 - i] = values_[bus[i].index()];
  }
  detail::transpose64(x);
  for (std::size_t lane = 0; lane < kBatchLanes; ++lane) {
    lane_values[lane] = x[63 - lane];
  }
}

void BatchSimulator::drive_bus(const Bus& bus,
                               std::span<const std::uint64_t> lane_values) {
  RIPPLE_ASSERT(bus.size() <= 64 && lane_values.size() == kBatchLanes);
  std::uint64_t x[64];
  for (std::size_t lane = 0; lane < kBatchLanes; ++lane) {
    x[63 - lane] = lane_values[lane];
  }
  detail::transpose64(x);
  for (std::size_t i = 0; i < bus.size(); ++i) set_input(bus[i], x[63 - i]);
}

void BatchSimulator::drive_bus_broadcast(const Bus& bus, std::uint64_t v) {
  RIPPLE_ASSERT(bus.size() <= 64);
  for (std::size_t i = 0; i < bus.size(); ++i) {
    set_input(bus[i], ((v >> i) & 1u) ? ~std::uint64_t{0} : 0);
  }
}

LaneMask BatchSimulator::state_divergence(unsigned golden_lane) const {
  RIPPLE_ASSERT(golden_lane < kBatchLanes);
  LaneMask diverged = 0;
  for (const std::uint64_t s : state_) {
    // Broadcast the golden lane's bit to all 64 lanes, then XOR: a set bit
    // marks a lane disagreeing with golden on this flop.
    const std::uint64_t golden =
        static_cast<std::uint64_t>(0) - ((s >> golden_lane) & 1u);
    diverged |= s ^ golden;
  }
  return diverged;
}

} // namespace ripple::sim
