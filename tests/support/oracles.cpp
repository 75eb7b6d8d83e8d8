#include "support/oracles.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "util/assert.hpp"
#include "util/bitvec.hpp"

namespace ripple::mate {
namespace {

/// Faulty wire -> dense index for the per-cycle union bitset.
std::unordered_map<WireId, std::size_t> build_fault_index(const MateSet& set) {
  std::unordered_map<WireId, std::size_t> fault_index;
  fault_index.reserve(set.faulty_wires.size());
  for (std::size_t i = 0; i < set.faulty_wires.size(); ++i) {
    fault_index.emplace(set.faulty_wires[i], i);
  }
  return fault_index;
}

/// The scalar replay. With `triggered` non-null it also records, per cycle,
/// the indices of the MATEs that held (ascending MATE order).
EvalResult scalar_replay(const MateSet& set, const sim::Trace& trace,
                         std::vector<std::vector<std::uint32_t>>* triggered) {
  EvalResult result;
  result.num_cycles = trace.num_cycles();
  result.num_faulty_wires = set.faulty_wires.size();
  result.per_mate.resize(set.mates.size());

  const std::unordered_map<WireId, std::size_t> fault_index =
      build_fault_index(set);

  // Pre-resolve each MATE's masked wires to dense indices.
  std::vector<std::vector<std::uint32_t>> masked_idx(set.mates.size());
  for (std::size_t m = 0; m < set.mates.size(); ++m) {
    for (WireId w : set.mates[m].masked_wires) {
      const auto it = fault_index.find(w);
      RIPPLE_ASSERT(it != fault_index.end(),
                    "MATE masks a wire outside the faulty set");
      masked_idx[m].push_back(static_cast<std::uint32_t>(it->second));
    }
  }

  if (triggered != nullptr) triggered->assign(trace.num_cycles(), {});

  BitVec masked(set.faulty_wires.size());
  for (std::size_t cycle = 0; cycle < trace.num_cycles(); ++cycle) {
    const BitVec& values = trace.cycle_values(cycle);
    masked.clear_all();
    for (std::size_t m = 0; m < set.mates.size(); ++m) {
      if (!set.mates[m].cube.eval(values)) continue;
      MateTraceStats& stats = result.per_mate[m];
      ++stats.triggers;
      stats.masked_total += masked_idx[m].size();
      for (std::uint32_t idx : masked_idx[m]) masked.set(idx, true);
      if (triggered != nullptr) {
        (*triggered)[cycle].push_back(static_cast<std::uint32_t>(m));
      }
    }
    result.masked_faults += masked.popcount();
  }

  detail::finalize_eval(set, result);
  return result;
}

} // namespace

EvalResult evaluate_mates_scalar(const MateSet& set, const sim::Trace& trace) {
  return scalar_replay(set, trace, nullptr);
}

SelectionResult rank_mates_scalar(const MateSet& set,
                                  const sim::Trace& trace) {
  // Pass 1: whole-trace masking volume per MATE + per-cycle trigger lists.
  std::vector<std::vector<std::uint32_t>> triggered_by_cycle;
  const EvalResult eval = scalar_replay(set, trace, &triggered_by_cycle);
  const std::vector<std::size_t> rank_of = detail::visit_rank(set, eval);
  const std::unordered_map<WireId, std::size_t> fault_index =
      build_fault_index(set);

  // Pass 2: per-cycle marginal gains in global visit order.
  SelectionResult out;
  out.hits.assign(set.mates.size(), 0);
  BitVec masked(set.faulty_wires.size());
  for (std::vector<std::uint32_t>& triggered : triggered_by_cycle) {
    if (triggered.empty()) continue;
    std::sort(triggered.begin(), triggered.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return rank_of[a] < rank_of[b];
              });
    masked.clear_all();
    for (std::uint32_t m : triggered) {
      std::size_t gained = 0;
      for (WireId w : set.mates[m].masked_wires) {
        const std::size_t idx = fault_index.at(w);
        if (!masked.get(idx)) {
          masked.set(idx, true);
          ++gained;
        }
      }
      out.hits[m] += gained;
    }
  }

  out.ranking = detail::ranking_from_hits(out.hits);
  return out;
}

std::vector<std::vector<bool>> benign_matrix(const MateSet& set,
                                             const sim::Trace& trace) {
  const std::unordered_map<WireId, std::size_t> fault_index =
      build_fault_index(set);
  std::vector<std::vector<bool>> benign(
      set.faulty_wires.size(),
      std::vector<bool>(trace.num_cycles(), false));
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    const BitVec& values = trace.cycle_values(c);
    for (const Mate& m : set.mates) {
      if (!m.cube.eval(values)) continue;
      for (WireId w : m.masked_wires) {
        benign[fault_index.at(w)][c] = true;
      }
    }
  }
  return benign;
}

} // namespace ripple::mate
