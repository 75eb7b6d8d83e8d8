// Fault-cone analysis (Section 3).
//
// The fault cone of a wire w is everything a wrong value of w can reach
// within the current clock cycle: all gates transitively driven by w and the
// wires they produce. Signals entering cone gates from outside are *border
// wires* — the only signals that can stop ("mask") the fault, and the only
// wires a border MATE may mention.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace ripple::mate {

struct FaultCone {
  /// Fault origin(s); one wire for the paper's SEU model, several for the
  /// multi-bit upsets of Section 6.2.
  std::vector<WireId> origins;
  /// Convenience for the single-origin case.
  [[nodiscard]] WireId origin() const {
    RIPPLE_ASSERT(origins.size() == 1);
    return origins[0];
  }

  /// Wires that can carry the fault (origin included), sorted by id.
  std::vector<WireId> wires;
  /// Gates with at least one cone input, sorted in topological order.
  std::vector<GateId> gates;
  /// Inputs of cone gates that are not cone wires, sorted by id, unique.
  std::vector<WireId> border_wires;
  /// Cone wires that are externally observable: primary outputs or flop D
  /// inputs. If the origin itself is an observer the fault can never be
  /// masked combinationally.
  std::vector<WireId> observers;

  [[nodiscard]] bool contains_wire(WireId w) const;
};

/// GateId -> position in a levelized order of the netlist (sim::levelize);
/// the form every compute_cone / search entry point wants. Compute it once
/// per netlist and pass it to the overloads below when sweeping many cones.
[[nodiscard]] std::vector<std::uint32_t> topo_positions(
    const netlist::Netlist& n);

/// Compute the (union) cone of one or more fault origins. `topo_positions`
/// must map GateId -> position in a levelized order of the netlist
/// (sim::levelize), so cone gates come out topologically sorted.
[[nodiscard]] FaultCone compute_cone(
    const netlist::Netlist& n, std::span<const WireId> origins,
    const std::vector<std::uint32_t>& topo_positions);

/// Convenience overloads; the single-origin forms levelize internally when
/// needed (fine for one-off use; the search precomputes the positions once).
[[nodiscard]] FaultCone compute_cone(
    const netlist::Netlist& n, WireId origin,
    const std::vector<std::uint32_t>& topo_positions);
[[nodiscard]] FaultCone compute_cone(const netlist::Netlist& n,
                                     WireId origin);
[[nodiscard]] FaultCone compute_cone(const netlist::Netlist& n,
                                     std::span<const WireId> origins);

} // namespace ripple::mate
