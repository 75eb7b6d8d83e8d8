// Greedy top-N MATE selection (Section 4, step 3).
//
// Replays a trace; per cycle, MATEs are visited in descending order of their
// whole-trace masking volume and each MATE is credited with the faults it
// masks that no earlier MATE of the same cycle already masked (its marginal
// gain). The top-N MATEs by accumulated credit form the subset synthesized
// into the HAFI platform.
//
// Like evaluation, ranking has one engine: the streaming RankAccumulator
// of mate/stream.hpp, whose pass 1 is the word-wide trigger evaluation and
// whose pass 2 computes marginal gains with word-level BitVec ops (or_count).
// The scalar oracle it is tested against lives in tests/support.
#pragma once

#include <cstddef>
#include <vector>

#include "mate/eval.hpp"
#include "mate/mate.hpp"

namespace ripple::mate {

struct SelectionResult {
  /// MATE indices sorted by accumulated hit counter, best first.
  std::vector<std::size_t> ranking;
  /// hit[i] = marginal-gain counter of MATE i (MateSet order).
  std::vector<std::size_t> hits;

  bool operator==(const SelectionResult&) const = default;
};

/// The top-N subset of `set` according to a ranking (N is clamped to the set
/// size). Faulty-wire universe is preserved.
[[nodiscard]] MateSet top_n(const MateSet& set, const SelectionResult& sel,
                            std::size_t n);

namespace detail {
// Shared between the streaming RankAccumulator (mate/stream.hpp) and the
// scalar test oracle; identical inputs must produce identical orderings for
// the two to stay byte-equivalent.

/// Global visit order: most-masking MATE first, MATE index as tie-break.
/// Returns rank_of[mate] = position.
[[nodiscard]] std::vector<std::size_t> visit_rank(const MateSet& set,
                                                  const EvalResult& eval);

/// Ranking sorted by hits desc, MATE index asc.
[[nodiscard]] std::vector<std::size_t> ranking_from_hits(
    const std::vector<std::size_t>& hits);
} // namespace detail

} // namespace ripple::mate
