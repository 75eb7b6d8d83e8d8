// Execution traces: per-cycle snapshots of every wire value.
//
// This is the artifact the paper records with a netlist simulator (as a VCD
// file) and later replays for MATE selection and fault-space quantification.
// A Trace carries the wire names so it can be written to / read from VCD
// independently of the netlist object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/bitvec.hpp"

namespace ripple::sim {

/// Consumer of per-cycle wire-value rows: what the core systems' step and
/// run_stream feed. A Trace keeps every row; a ChunkedTraceRecorder
/// (sim/stream.hpp) transposes them into chunks as they arrive.
class RowSink {
public:
  virtual ~RowSink() = default;
  virtual void append_row(const BitVec& values) = 0;
};

class Trace final : public RowSink {
public:
  Trace() = default;

  /// Create an empty trace whose wire layout matches `n` (index = WireId).
  explicit Trace(const netlist::Netlist& n);

  [[nodiscard]] std::size_t num_wires() const { return wire_names_.size(); }
  [[nodiscard]] std::size_t num_cycles() const { return snapshots_.size(); }
  [[nodiscard]] const std::string& wire_name(std::size_t i) const {
    return wire_names_[i];
  }

  /// Record the settled wire values of the current cycle.
  void append_row(const BitVec& values) override;

  [[nodiscard]] bool value(std::size_t cycle, WireId w) const {
    RIPPLE_ASSERT(cycle < snapshots_.size());
    return snapshots_[cycle].get(w.index());
  }

  [[nodiscard]] const BitVec& cycle_values(std::size_t cycle) const {
    RIPPLE_ASSERT(cycle < snapshots_.size());
    return snapshots_[cycle];
  }

private:
  friend Trace make_trace_for_names(std::vector<std::string> names);
  std::vector<std::string> wire_names_;
  std::vector<BitVec> snapshots_;
};

/// Internal factory used by the VCD parser.
[[nodiscard]] Trace make_trace_for_names(std::vector<std::string> names);

/// Reorder a trace (e.g. parsed from a foreign VCD) so that wire index i
/// corresponds to WireId i of `n`. Wires of `n` missing from the trace are an
/// error; extra trace wires are dropped.
[[nodiscard]] Trace align_trace(const Trace& trace, const netlist::Netlist& n);

/// Run `sim` for `cycles` cycles with a per-cycle driver callback and record
/// a trace. `drive(sim, cycle)` is called before evaluation; it may call
/// eval() itself (memory harnesses do).
template <typename DriveFn>
Trace record_trace(Simulator& sim, std::size_t cycles, DriveFn&& drive) {
  Trace trace(sim.netlist());
  for (std::size_t c = 0; c < cycles; ++c) {
    drive(sim, c);
    sim.eval();
    trace.append_row(sim.values());
    sim.latch();
  }
  return trace;
}

} // namespace ripple::sim
