// MATE evaluation over an execution trace (Section 5.3).
//
// Replays a recorded trace and, per cycle, determines which MATEs trigger and
// which faults they prove benign. This is both the offline fault-space
// quantification of the paper's evaluation and — applied cycle-by-cycle in
// the simulator — the online pruning a HAFI platform would perform.
//
// There is one engine: the word-parallel streaming accumulator of
// mate/stream.hpp (64 cycles per machine word; a MATE's trigger stream for a
// 64-cycle block is the AND over its literals of (wire_stream ^
// invert_mask)), fed by any sim::TraceSource. The literal scalar oracle it
// is tested against lives in tests/support.
#pragma once

#include <cstddef>
#include <vector>

#include "mate/mate.hpp"

namespace ripple::mate {

struct MateTraceStats {
  std::size_t triggers = 0;       // cycles in which the cube held
  std::size_t masked_total = 0;   // sum over cycles of faults masked

  bool operator==(const MateTraceStats&) const = default;
};

struct EvalResult {
  std::size_t num_cycles = 0;
  std::size_t num_faulty_wires = 0;

  /// |fault space| = faulty wires x cycles.
  [[nodiscard]] std::size_t fault_space() const {
    return num_cycles * num_faulty_wires;
  }

  /// Fault-space points proven benign (per cycle: |union of masked wires over
  /// all triggered MATEs|).
  std::size_t masked_faults = 0;

  [[nodiscard]] double masked_fraction() const {
    return fault_space() == 0
               ? 0.0
               : static_cast<double>(masked_faults) /
                     static_cast<double>(fault_space());
  }

  /// Number of MATEs that triggered at least once.
  std::size_t effective_mates = 0;

  /// Mean and standard deviation of the input (literal) count of effective
  /// MATEs — the paper's "Avg. #inputs" row, i.e. the FPGA cost driver.
  double avg_inputs = 0.0;
  double sd_inputs = 0.0;

  std::vector<MateTraceStats> per_mate; // indexed like MateSet::mates

  bool operator==(const EvalResult&) const = default;
};

namespace detail {
/// Derived tail (effective_mates, avg/sd inputs) of every EvalResult:
/// identical arithmetic on identical integer counters keeps the accumulator
/// and the test oracles byte-for-byte equivalent, doubles included.
void finalize_eval(const MateSet& set, EvalResult& result);
} // namespace detail

} // namespace ripple::mate
