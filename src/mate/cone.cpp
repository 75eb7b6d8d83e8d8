#include "mate/cone.hpp"

#include <algorithm>

#include "sim/levelize.hpp"

namespace ripple::mate {

bool FaultCone::contains_wire(WireId w) const {
  return std::binary_search(wires.begin(), wires.end(), w);
}

FaultCone compute_cone(const netlist::Netlist& n,
                       std::span<const WireId> origins,
                       const std::vector<std::uint32_t>& topo_positions) {
  RIPPLE_CHECK(!origins.empty(), "a fault cone needs at least one origin");
  FaultCone cone;
  cone.origins.assign(origins.begin(), origins.end());

  std::vector<std::uint8_t> wire_in(n.num_wires(), 0);
  std::vector<std::uint8_t> gate_in(n.num_gates(), 0);

  std::vector<WireId> frontier;
  for (WireId origin : origins) {
    if (wire_in[origin.index()]) continue;
    wire_in[origin.index()] = 1;
    cone.wires.push_back(origin);
    frontier.push_back(origin);
  }

  while (!frontier.empty()) {
    const WireId w = frontier.back();
    frontier.pop_back();
    for (GateId g : n.wire(w).gate_fanout) {
      if (gate_in[g.index()]) continue;
      gate_in[g.index()] = 1;
      cone.gates.push_back(g);
      const WireId y = n.gate(g).output;
      if (!wire_in[y.index()]) {
        wire_in[y.index()] = 1;
        cone.wires.push_back(y);
        frontier.push_back(y);
      }
    }
  }

  std::sort(cone.wires.begin(), cone.wires.end());
  std::sort(cone.gates.begin(), cone.gates.end(), [&](GateId a, GateId b) {
    return topo_positions[a.index()] < topo_positions[b.index()];
  });

  for (GateId g : cone.gates) {
    for (WireId in : n.gate(g).inputs) {
      if (!wire_in[in.index()]) cone.border_wires.push_back(in);
    }
  }
  std::sort(cone.border_wires.begin(), cone.border_wires.end());
  cone.border_wires.erase(
      std::unique(cone.border_wires.begin(), cone.border_wires.end()),
      cone.border_wires.end());

  for (WireId w : cone.wires) {
    const netlist::Wire& wire = n.wire(w);
    if (wire.is_primary_output || !wire.flop_fanout.empty()) {
      cone.observers.push_back(w);
    }
  }
  return cone;
}

FaultCone compute_cone(const netlist::Netlist& n, WireId origin,
                       const std::vector<std::uint32_t>& topo_positions) {
  const WireId origins[1] = {origin};
  return compute_cone(n, std::span<const WireId>(origins, 1), topo_positions);
}

std::vector<std::uint32_t> topo_positions(const netlist::Netlist& n) {
  const sim::Levelization level = sim::levelize(n);
  std::vector<std::uint32_t> pos(n.num_gates());
  for (std::size_t i = 0; i < level.order.size(); ++i) {
    pos[level.order[i].index()] = static_cast<std::uint32_t>(i);
  }
  return pos;
}

FaultCone compute_cone(const netlist::Netlist& n,
                       std::span<const WireId> origins) {
  return compute_cone(n, origins, topo_positions(n));
}

FaultCone compute_cone(const netlist::Netlist& n, WireId origin) {
  const WireId origins[1] = {origin};
  return compute_cone(n, std::span<const WireId>(origins, 1));
}

} // namespace ripple::mate
