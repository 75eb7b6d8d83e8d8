#include "support/multicycle.hpp"

namespace ripple::sim {

using netlist::Netlist;

MultiCycleOracle::MultiCycleOracle(const Netlist& n)
    : netlist_(&n), sim_(n) {}

void MultiCycleOracle::load_state_from(const Trace& golden, std::size_t t) {
  BitVec state(netlist_->num_flops());
  const BitVec& row = golden.cycle_values(t);
  for (FlopId f : netlist_->all_flops()) {
    state.set(f.index(), row.get(netlist_->flop(f).q.index()));
  }
  sim_.set_flop_state(state);
}

unsigned MultiCycleOracle::masked_within(FlopId f, const Trace& golden,
                                         std::size_t t, unsigned k) {
  RIPPLE_CHECK(t < golden.num_cycles(), "injection cycle beyond trace");

  load_state_from(golden, t);
  sim_.flip_flop(f);

  for (unsigned j = 0; j < k; ++j) {
    const std::size_t cycle = t + j;
    if (cycle >= golden.num_cycles()) return 0; // can't prove convergence
    const BitVec& row = golden.cycle_values(cycle);

    // Replay the recorded environment.
    for (WireId in : netlist_->primary_inputs()) {
      sim_.set_input(in, row.get(in.index()));
    }
    sim_.eval();

    // Outputs must match the golden run while the fault is live.
    for (WireId out : netlist_->primary_outputs()) {
      if (sim_.value(out) != row.get(out.index())) return 0;
    }
    sim_.latch();

    // Converged when the next-cycle state equals the golden state.
    if (cycle + 1 < golden.num_cycles()) {
      const BitVec& next = golden.cycle_values(cycle + 1);
      bool equal = true;
      const BitVec state = sim_.flop_state();
      for (FlopId g : netlist_->all_flops()) {
        if (state.get(g.index()) !=
            next.get(netlist_->flop(g).q.index())) {
          equal = false;
          break;
        }
      }
      if (equal) return j + 1;
    }
  }
  return 0;
}

} // namespace ripple::sim
