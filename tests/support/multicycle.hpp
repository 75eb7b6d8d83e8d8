// Multi-cycle fault-masking oracle (the paper's Section 6.2 outlook:
// "MATEs for faults that are masked only within more than one clock cycle").
//
// An SEU in flop f at cycle t is *masked within k cycles* iff, replaying the
// golden trace's inputs, the faulty run produces identical primary outputs
// in cycles t .. t+j-1 and an identical flop state at the start of cycle
// t+j, for some j <= k. j = 1 coincides with the paper's one-cycle
// definition, which hafi::masked_masks answers for a whole golden run.
//
// The oracle re-simulates one (flop, cycle, k) at a time on the scalar
// Simulator: the literal definition hafi::convergence_cycles (the k-step
// label sweep, 64 golden cycles per kernel sweep) is checked against bit
// for bit.
#pragma once

#include <cstdint>

#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ripple::sim {

class MultiCycleOracle {
public:
  explicit MultiCycleOracle(const netlist::Netlist& n);

  /// Returns the smallest j in [1, k] such that the fault has converged
  /// (outputs matched throughout, state equal at start of cycle t+j), or 0
  /// when the fault is still live after k cycles or the trace ends first.
  ///
  /// `golden` must be a trace of this netlist (settled values per cycle,
  /// inputs included), `t` the injection cycle.
  [[nodiscard]] unsigned masked_within(FlopId f, const Trace& golden,
                                       std::size_t t, unsigned k);

private:
  /// Load the faulty run's flop state from the golden trace row at cycle t.
  void load_state_from(const Trace& golden, std::size_t t);

  const netlist::Netlist* netlist_;
  Simulator sim_;
};

} // namespace ripple::sim
