// Fault-space rendering (Figure 1b).
#pragma once

#include <string>

#include "mate/mate.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"

namespace ripple::mate {

/// Render the (wires x cycles) fault space as the paper's Figure 1b grid:
/// '*' = possibly effective, 'o' = proven benign by a triggered MATE.
/// Rows follow `set.faulty_wires`, columns the cycles of `trace`.
[[nodiscard]] std::string render_fault_grid(const netlist::Netlist& n,
                                            const MateSet& set,
                                            sim::TraceSource& trace);

} // namespace ripple::mate
