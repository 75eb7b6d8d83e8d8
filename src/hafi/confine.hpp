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
// Masked alone is the paper's benign definition (Section 3): the SEU is
// masked within one cycle. masked_masks exposes it as the exact one-cycle
// masking oracle, for single flops and for groups of flops flipped together
// (multi-bit upsets); MATE pruning must be a subset of it.
//
// The sweeps run on the one gate kernel with lane = golden cycle: a 64-cycle
// block of a chunk is loaded word for word into the flop state and the
// primary inputs, each sweep flips one flop (or one group) in every lane,
// and every primary output and D wire is XORed against the golden words.
// That is flops (groups) x ceil(cycles / 64) sweeps, fanned out per block.
//
// convergence_cycles extends Masked to k cycles (the paper's Section 6.2
// outlook) with the same lanes: step s drives the inputs with the golden
// words of cycles t + s and retires a lane once its fate is decided, so a
// block costs at most k sweeps per flop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hafi/campaign.hpp"
#include "netlist/netlist.hpp"
#include "sim/stream.hpp"
#include "sim/transposed.hpp"
#include "util/bitvec.hpp"

namespace ripple::hafi {

/// Flops flipped together by one fault; a single-bit SEU is a group of one.
using FlopGroup = std::vector<FlopId>;

/// Every flop of `n` as a group of its own, in FlopId order.
[[nodiscard]] std::vector<FlopGroup> single_flops(const netlist::Netlist& n);

/// One cycle bitmask per flop, in FlopId order: bit t is set when an SEU at
/// (flop, t) provably ends Benign. `golden` is streamed once and must cover
/// every wire of `n`. The blocks of each chunk fan out over `execute`
/// (inline when empty); the result does not depend on it.
[[nodiscard]] std::vector<BitVec> confined_masks(
    const netlist::Netlist& n, sim::TraceSource& golden,
    const ShardExecutor& execute = {});

/// The exact one-cycle masking oracle: one cycle bitmask per group, in
/// `groups` order, bit t set when flipping every flop of the group in the
/// golden state of cycle t leaves every primary output and every D wire
/// unchanged (the Masked label). `golden` and `execute` as above.
[[nodiscard]] std::vector<BitVec> masked_masks(
    const netlist::Netlist& n, sim::TraceSource& golden,
    std::span<const FlopGroup> groups, const ShardExecutor& execute = {});

/// The k-cycle masking oracle: per flop (FlopId order) and cycle t of
/// `golden`, the smallest j in [1, k] such that an SEU in the flop at cycle
/// t, with the golden inputs replayed, leaves every primary output unchanged
/// in cycles t .. t + j - 1 and the flop state equal to the golden state of
/// cycle t + j; 0 when there is none or the trace ends first. Before the
/// last cycle, j = 1 is the Masked label. `golden` must cover every wire of
/// `n`, and k lie in [1, 63]. One thread, at most k sweeps per flop and
/// 64-cycle block.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> convergence_cycles(
    const netlist::Netlist& n, const sim::TransposedTrace& golden,
    unsigned k);

} // namespace ripple::hafi
