#include "mate/faultspace.hpp"

#include "mate/stream.hpp"
#include "util/strings.hpp"

namespace ripple::mate {

std::string render_fault_grid(const netlist::Netlist& n, const MateSet& set,
                              sim::TraceSource& trace) {
  const std::vector<BitVec> benign = benign_masks(set, trace);

  std::size_t name_width = 5;
  for (WireId w : set.faulty_wires) {
    name_width = std::max(name_width, n.wire(w).name.size());
  }

  std::string out = strprintf("%-*s  cycle ->\n", static_cast<int>(name_width),
                              "wire");
  for (std::size_t i = 0; i < set.faulty_wires.size(); ++i) {
    out += strprintf("%-*s  ", static_cast<int>(name_width),
                     n.wire(set.faulty_wires[i]).name.c_str());
    for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
      out += benign[i].get(c) ? 'o' : '*';
      out += ' ';
    }
    out += '\n';
  }
  out += strprintf("(%s = possibly effective, %s = benign within one cycle)\n",
                   "*", "o");
  return out;
}

} // namespace ripple::mate
