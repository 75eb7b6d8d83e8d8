// Netlist-level MATE inspector: load a structural-Verilog netlist (or use
// the built-in Figure-1 example), pick a wire, and explain its fault cone,
// propagation paths and derived MATEs — a debugging lens for the analysis.
//
//   $ ./mate_inspect                         # Figure-1 example, wire d
//   $ ./mate_inspect netlist.v some_wire
#include <fstream>
#include <iostream>
#include <sstream>

#include "mate/example.hpp"
#include "mate/gate_masking.hpp"
#include "mate/paths.hpp"
#include "mate/search.hpp"
#include "netlist/verilog.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/harness.hpp"

using namespace ripple;

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  pipeline::Harness h(argc, argv, "mate_inspect",
                      "Explain fault cone, paths and MATEs of one wire",
                      pipeline::kThreads | pipeline::kDepth,
                      [&](OptionParser& p) {
                        p.set_positional("[netlist.v wire]",
                                         "Verilog netlist and wire name "
                                         "(default: Figure 1, wire d)",
                                         &positional);
                      });

  netlist::Netlist n;
  const std::string wire_name = positional.size() >= 2 ? positional[1] : "d";
  if (positional.size() >= 2) {
    std::ifstream in(positional[0]);
    if (!in) {
      std::cerr << "cannot open " << positional[0] << "\n";
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    n = netlist::parse_verilog(ss.str());
  } else {
    n = mate::build_figure1_circuit().netlist;
  }

  const auto wire = n.find_wire(wire_name);
  if (!wire) {
    std::cerr << "no wire '" << wire_name << "' in module '" << n.name()
              << "'\n";
    return 1;
  }

  std::cout << "module " << n.name() << ": " << n.num_gates() << " gates, "
            << n.num_flops() << " flops, " << n.num_wires() << " wires\n\n";

  const mate::FaultCone cone = mate::compute_cone(n, *wire);
  std::cout << "fault cone of '" << wire_name << "': " << cone.gates.size()
            << " gates, " << cone.border_wires.size() << " border wires, "
            << cone.observers.size() << " observable wires\n";

  mate::PathEnumParams pp;
  const mate::PathEnumResult paths = enumerate_paths(n, cone, pp);
  std::size_t open = 0;
  for (const mate::Path& p : paths.paths) open += p.open ? 1 : 0;
  std::cout << "propagation paths (depth " << pp.max_depth
            << "): " << paths.paths.size() << " (" << open
            << " cut off at the horizon)\n\n";

  // Show the gate-masking capabilities along the first few paths.
  const mate::GateMaskingTable& gm = mate::GateMaskingTable::instance();
  for (std::size_t pi = 0; pi < paths.paths.size() && pi < 3; ++pi) {
    const mate::Path& p = paths.paths[pi];
    std::cout << "path " << pi << (p.open ? " (open): " : ": ");
    WireId entry = *wire;
    for (GateId g : p.gates) {
      const auto& gate = n.gate(g);
      std::uint8_t mask = 0;
      for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
        if (gate.inputs[pin] == entry) {
          mask |= static_cast<std::uint8_t>(1u << pin);
        }
      }
      std::cout << cell::name(gate.kind)
                << (gm.can_mask(gate.kind, mask) ? "[m]" : "[-]") << " ";
      entry = gate.output;
    }
    std::cout << "\n";
  }

  std::cout << "\nMATE search for '" << wire_name << "':\n";
  const std::vector<WireId> faulty = {*wire};
  const mate::SearchResult r = h.pipe().find_mates(
      n, pipeline::fingerprint(n), faulty, h.params(), wire_name);
  switch (r.outcomes[0].status) {
    case mate::WireStatus::Found:
      for (const mate::Mate& mt : r.set.mates) {
        std::cout << "  MATE " << mt.cube.to_string(n) << "\n";
      }
      break;
    case mate::WireStatus::Unmaskable:
      std::cout << "  unmaskable: some propagation path has no gate with "
                   "fault-masking capability\n";
      break;
    case mate::WireStatus::NoMate:
      std::cout << "  no MATE found within the heuristic budgets\n";
      break;
    case mate::WireStatus::PathBudget:
      std::cout << "  path enumeration exceeded its budget\n";
      break;
  }
  std::cout << "(" << r.outcomes[0].candidates_tried << " candidates tried)\n";
  return 0;
}
