#include "mate/select.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ripple::mate {
namespace detail {

/// Global visit order: most-masking MATE first (the paper's "beginning from
/// the MATE that masks the most faults"). Returns rank_of[mate] = position.
std::vector<std::size_t> visit_rank(const MateSet& set,
                                    const EvalResult& eval) {
  std::vector<std::size_t> global_order(set.mates.size());
  for (std::size_t i = 0; i < global_order.size(); ++i) global_order[i] = i;
  std::sort(global_order.begin(), global_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (eval.per_mate[a].masked_total !=
                  eval.per_mate[b].masked_total) {
                return eval.per_mate[a].masked_total >
                       eval.per_mate[b].masked_total;
              }
              return a < b;
            });
  std::vector<std::size_t> rank_of(set.mates.size());
  for (std::size_t i = 0; i < global_order.size(); ++i) {
    rank_of[global_order[i]] = i;
  }
  return rank_of;
}

std::vector<std::size_t> ranking_from_hits(
    const std::vector<std::size_t>& hits) {
  std::vector<std::size_t> ranking(hits.size());
  for (std::size_t i = 0; i < ranking.size(); ++i) ranking[i] = i;
  std::sort(ranking.begin(), ranking.end(),
            [&](std::size_t a, std::size_t b) {
              if (hits[a] != hits[b]) return hits[a] > hits[b];
              return a < b;
            });
  return ranking;
}

} // namespace detail

MateSet top_n(const MateSet& set, const SelectionResult& sel, std::size_t n) {
  RIPPLE_ASSERT(sel.ranking.size() == set.mates.size(),
                "selection does not belong to this MATE set");
  MateSet out;
  out.faulty_wires = set.faulty_wires;
  const std::size_t count = std::min(n, sel.ranking.size());
  out.mates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.mates.push_back(set.mates[sel.ranking[i]]);
  }
  return out;
}

} // namespace ripple::mate
