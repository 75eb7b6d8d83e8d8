// Confinement labels: the SEUs the golden run alone proves Benign.
//
// Every (flop f, cycle t) of the golden run gets one of three labels from
// one gate sweep with f flipped in the golden state of cycle t:
//   * Masked:  no primary output and no next-state bit changes;
//   * Held:    no primary output changes, and f's own next-state bit is the
//              only one that does;
//   * Escaped: anything else.
// An SEU at (f, t) provably ends Benign when f's labels from t on read
// Held ... Held then Masked, or Held through the last cycle. By induction
// over the Held chain the faulty run's state is the golden state with bit f
// flipped and each of its primary outputs equals the golden run's, so the
// harness (which reads only primary outputs, a premise every harness
// constructor checks with BatchSimulator::require_primary_output) serves
// the same memory reads and records the same writes and I/O events. A
// Masked cycle makes the state golden again, and a campaign's outcome never
// reads the final flop state, so a chain Held to the end is Benign too.
//
// The sweeps run on the one gate kernel with lane = golden cycle: a 64-cycle
// block of a chunk is loaded word for word into the flop state and the
// primary inputs, each sweep flips one flop in every lane, and every primary
// output and D wire is XORed against the golden words. That is
// flops x ceil(cycles / 64) sweeps, fanned out per block.
#pragma once

#include <vector>

#include "hafi/campaign.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"
#include "util/bitvec.hpp"

namespace ripple::hafi {

/// One cycle bitmask per flop, in FlopId order: bit t is set when an SEU at
/// (flop, t) provably ends Benign. `golden` is streamed once and must cover
/// every wire of `n`. The blocks of each chunk fan out over `execute`
/// (inline when empty); the result does not depend on it.
[[nodiscard]] std::vector<BitVec> confined_masks(
    const netlist::Netlist& n, sim::TraceSource& golden,
    const ShardExecutor& execute = {});

} // namespace ripple::hafi
