// Reference implementations the production MATE stages are tested against.
//
// Production code has one path per stage: the word-parallel streaming
// accumulators (mate/stream.hpp) score traces, and the cone-isomorphism
// dedup search (mate/search.hpp) finds MATEs. The literal, obviously-correct
// versions below live only here, as oracles for the byte-identity suites:
//   * evaluate_mates_scalar -- per cycle, per MATE, per literal;
//   * rank_mates_scalar     -- the same replay, keeping per-cycle trigger
//                              lists for the greedy marginal-gain pass;
//   * benign_matrix         -- the same replay, one bool per (fault, cycle):
//                              the oracle of mate::benign_masks;
//   * find_mates_per_wire   -- every faulty wire searched on its own by the
//                              reference DFS (support/reference_search.cpp:
//                              one coverage bit per path, one Cube::conjoin
//                              per candidate), cubes merged first-seen in
//                              wire order.
#pragma once

#include <vector>

#include "mate/eval.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "netlist/netlist.hpp"
#include "sim/trace.hpp"

namespace ripple::mate {

/// Scalar fault-space quantification: O(cycles x mates x literals) bit ops.
[[nodiscard]] EvalResult evaluate_mates_scalar(const MateSet& set,
                                               const sim::Trace& trace);

/// Scalar greedy ranking: pass 1 is the scalar evaluation plus per-cycle
/// trigger lists, pass 2 credits marginal gains wire by wire.
[[nodiscard]] SelectionResult rank_mates_scalar(const MateSet& set,
                                                const sim::Trace& trace);

/// Per-(wire, cycle) benign matrix: benign[w][c] is set when a MATE masking
/// set.faulty_wires[w] holds in cycle c of `trace`.
[[nodiscard]] std::vector<std::vector<bool>> benign_matrix(
    const MateSet& set, const sim::Trace& trace);

/// The search without cone-isomorphism dedup and without the production
/// DFS: each wire searched alone by the reference DFS, which takes the same
/// prune decisions in the same order (so candidates_tried agrees per wire),
/// then identical cubes merged across wires in first-seen order.
/// `params.threads` fans the per-wire searches out; the result reports every
/// wire as its own class (dedup_classes == faulty_wires.size()).
[[nodiscard]] SearchResult find_mates_per_wire(
    const netlist::Netlist& n, const std::vector<WireId>& faulty_wires,
    const SearchParams& params = {});

} // namespace ripple::mate
