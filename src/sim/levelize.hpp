// Topological ordering ("levelization") of the combinational gates of a
// netlist. Sources are primary inputs and flop Q outputs; a valid synchronous
// circuit has no combinational cycle. The order is reused by the gate
// kernel's compiler, the structural optimizer, the netlist statistics and
// the MATE search's fault cones.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"

namespace ripple::sim {

struct Levelization {
  /// Gates in evaluation order (every gate appears after its input drivers).
  std::vector<GateId> order;
  /// level[gate] = 1 + max level of driving gates (sources have level 0).
  std::vector<std::uint32_t> gate_level;
  /// Maximum gate level + 1 (combinational depth of the circuit).
  std::uint32_t depth = 0;
};

/// Compute the order. Throws ripple::Error when the netlist contains a
/// combinational cycle (the message names a wire on the cycle).
[[nodiscard]] Levelization levelize(const netlist::Netlist& n);

} // namespace ripple::sim
