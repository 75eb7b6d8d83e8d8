#include "sim/trace.hpp"

#include <string_view>
#include <unordered_map>

namespace ripple::sim {

Trace::Trace(const netlist::Netlist& n) {
  wire_names_.reserve(n.num_wires());
  for (WireId w : n.all_wires()) {
    wire_names_.push_back(n.wire(w).name);
  }
}

void Trace::append_row(const BitVec& values) {
  RIPPLE_ASSERT(values.size() == wire_names_.size(),
                "snapshot size mismatch: ", values.size(), " vs ",
                wire_names_.size());
  snapshots_.push_back(values);
}

Trace make_trace_for_names(std::vector<std::string> names) {
  Trace t;
  t.wire_names_ = std::move(names);
  return t;
}

Trace align_trace(const Trace& trace, const netlist::Netlist& n) {
  std::vector<std::size_t> source_index(n.num_wires());
  std::unordered_map<std::string_view, std::size_t> by_name;
  for (std::size_t i = 0; i < trace.num_wires(); ++i) {
    by_name.emplace(trace.wire_name(i), i);
  }
  for (WireId w : n.all_wires()) {
    const auto it = by_name.find(n.wire(w).name);
    RIPPLE_CHECK(it != by_name.end(), "trace is missing wire '",
                 n.wire(w).name, "'");
    source_index[w.index()] = it->second;
  }

  Trace out(n);
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    const BitVec& src = trace.cycle_values(c);
    BitVec row(n.num_wires());
    for (std::size_t i = 0; i < source_index.size(); ++i) {
      row.set(i, src.get(source_index[i]));
    }
    out.append_row(row);
  }
  return out;
}

} // namespace ripple::sim
