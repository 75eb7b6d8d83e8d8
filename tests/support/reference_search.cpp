// The reference MATE search behind find_mates_per_wire (support/oracles.hpp):
// every faulty wire searched on its own by the literal DFS — one coverage
// bit per propagation path, terms ordered by a comparator that counts both
// terms' path bits, and one Cube::conjoin per candidate. It makes the same
// prune decisions in the same order as the production search
// (mate/search.cpp), so every wire's candidates_tried must agree exactly,
// not just its MATEs.
#include <algorithm>
#include <optional>
#include <unordered_map>

#include "mate/gate_masking.hpp"
#include "support/oracles.hpp"
#include "util/bitvec.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ripple::mate {
namespace {

/// One wire's search; construct one per wire.
class ReferenceWireSearch {
public:
  ReferenceWireSearch(const netlist::Netlist& n, const SearchParams& params,
                      const std::vector<std::uint32_t>& topo)
      : n_(n), params_(params), topo_(topo) {}

  std::vector<Cube> run(WireId wire, WireOutcome& outcome) {
    outcome.wire = wire;
    const WireId group[1] = {wire};
    const FaultCone cone = compute_cone(n_, group, topo_);
    outcome.cone_gates = cone.gates.size();
    outcome.border_wires = cone.border_wires.size();

    PathEnumParams pp;
    pp.max_depth = params_.path_depth;
    pp.max_paths = params_.max_paths_per_wire;
    const PathEnumResult pr = enumerate_paths(n_, cone, pp);
    outcome.num_paths = pr.paths.size();
    if (!pr.complete) {
      outcome.status = WireStatus::PathBudget;
      return {};
    }
    if (pr.paths.empty()) {
      // No path reaches an observer: the constant-true MATE masks it.
      outcome.status = WireStatus::Found;
      outcome.mates_found = 1;
      return {Cube{}};
    }
    num_paths_ = pr.paths.size();

    if (!collect_terms(cone, pr)) {
      outcome.status = WireStatus::Unmaskable;
      return {};
    }

    // Most-blocking term first, ties by cube.
    order_.resize(terms_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                const std::size_t ca = terms_[a].blocks.popcount();
                const std::size_t cb = terms_[b].blocks.popcount();
                if (ca != cb) return ca > cb;
                return terms_[a].cube < terms_[b].cube;
              });

    // suffix_[i]: union of the blocks of order_[i..].
    suffix_.assign(order_.size() + 1, BitVec(num_paths_));
    for (std::size_t i = order_.size(); i-- > 0;) {
      suffix_[i] = suffix_[i + 1];
      suffix_[i] |= terms_[order_[i]].blocks;
    }
    full_ = BitVec(num_paths_, true);
    if (!(suffix_[0] == full_)) {
      outcome.status = WireStatus::Unmaskable;
      return {};
    }

    // cov_stack_[d]: paths blocked by the d chosen terms.
    cov_stack_.assign(params_.max_terms + 1, BitVec(num_paths_));
    dfs(0, Cube{});

    outcome.candidates_tried = candidates_;
    outcome.mates_found = recorder_.size();
    outcome.status =
        recorder_.size() == 0 ? WireStatus::NoMate : WireStatus::Found;
    return recorder_.take_cubes();
  }

private:
  struct Term {
    Cube cube;
    BitVec blocks; // over paths
  };

  /// Instantiated gate-masking terms of every (gate, entry wire) pair on
  /// some path, over border wires only, indexed in first-encounter order.
  /// False when some path has no term.
  bool collect_terms(const FaultCone& cone, const PathEnumResult& pr) {
    const GateMaskingTable& gm = GateMaskingTable::instance();
    std::unordered_map<Cube, std::size_t> term_index;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> terms_of;
    const auto collect = [&](GateId g, WireId entry)
        -> const std::vector<std::size_t>& {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(g.value()) << 32) | entry.value();
      const auto found = terms_of.find(key);
      if (found != terms_of.end()) return found->second;
      auto& slot = terms_of[key];
      const netlist::Gate& gate = n_.gate(g);
      std::uint8_t faulty_mask = 0;
      for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
        if (gate.inputs[pin] == entry) {
          faulty_mask |= static_cast<std::uint8_t>(1u << pin);
        }
      }
      for (const PinCube& pc : gm.terms(gate.kind, faulty_mask)) {
        bool usable = true;
        std::vector<Literal> lits;
        for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
          if (!(pc.care & (1u << pin))) continue;
          const WireId in = gate.inputs[pin];
          if (cone.contains_wire(in)) {
            usable = false;
            break;
          }
          lits.push_back(Literal{in, ((pc.value >> pin) & 1u) != 0});
        }
        if (!usable) continue;
        Cube cube{std::move(lits)};
        const auto [it, inserted] =
            term_index.try_emplace(std::move(cube), terms_.size());
        if (inserted) terms_.push_back(Term{it->first, BitVec(num_paths_)});
        slot.push_back(it->second);
      }
      return slot;
    };

    for (std::size_t pi = 0; pi < pr.paths.size(); ++pi) {
      const Path& p = pr.paths[pi];
      bool maskable = false;
      WireId entry = p.origin;
      for (GateId g : p.gates) {
        for (std::size_t t : collect(g, entry)) {
          terms_[t].blocks.set(pi, true);
          maskable = true;
        }
        entry = n_.gate(g).output;
      }
      if (!maskable) return false;
    }
    return true;
  }

  /// Term combinations in order_ index order; `conj` is the conjunction of
  /// the chosen terms.
  void dfs(std::size_t from, const Cube& conj) {
    if (budget_exhausted()) return;
    const std::size_t depth = chosen_.size();
    const BitVec& covered = cov_stack_[depth];
    for (std::size_t i = from; i < order_.size(); ++i) {
      if (budget_exhausted()) return;
      if (chosen_.size() >= params_.max_terms) return;
      if (recorder_.size() >= params_.max_mates_per_wire) return;

      // The remaining terms (i included) can no longer block every path.
      if (covered.popcount_or(suffix_[i]) != num_paths_) return;

      const Term& t = terms_[order_[i]];
      if (t.blocks.is_subset_of(covered)) continue; // blocks nothing new

      const std::optional<Cube> next = conj.conjoin(t.cube);
      ++candidates_;
      if (!next) continue; // contradictory literals

      chosen_.push_back(order_[i]);
      BitVec& next_cov = cov_stack_[depth + 1];
      next_cov = covered;
      next_cov |= t.blocks;
      if (next_cov == full_) {
        std::vector<std::size_t> set = chosen_;
        std::sort(set.begin(), set.end());
        recorder_.add(std::move(set), *next);
      } else {
        dfs(i + 1, *next);
      }
      chosen_.pop_back();
    }
  }

  bool budget_exhausted() const {
    return candidates_ >= params_.max_candidates_per_wire;
  }

  const netlist::Netlist& n_;
  const SearchParams& params_;
  const std::vector<std::uint32_t>& topo_;

  std::size_t num_paths_ = 0;
  std::vector<Term> terms_;
  std::vector<std::size_t> order_;
  std::vector<BitVec> suffix_;
  BitVec full_;
  std::vector<BitVec> cov_stack_;
  MinimalCubeRecorder recorder_;
  std::vector<std::size_t> chosen_;
  std::size_t candidates_ = 0;
};

} // namespace

SearchResult find_mates_per_wire(const netlist::Netlist& n,
                                 const std::vector<WireId>& faulty_wires,
                                 const SearchParams& params) {
  RIPPLE_CHECK(params.max_terms >= 1, "max_terms must be at least 1");
  n.check();
  Stopwatch watch;
  const std::vector<std::uint32_t> topo = topo_positions(n);
  SearchResult result;
  result.outcomes.resize(faulty_wires.size());
  std::vector<std::vector<Cube>> cubes(faulty_wires.size());
  ThreadPool pool(params.threads);
  pool.parallel_for_index(faulty_wires.size(), [&](std::size_t i) {
    Stopwatch wire_watch;
    ReferenceWireSearch search(n, params, topo);
    cubes[i] = search.run(faulty_wires[i], result.outcomes[i]);
    result.outcomes[i].seconds = wire_watch.seconds();
  });

  // Merge identical cubes across wires in first-seen order; a wire is
  // listed once per cube it recorded.
  std::unordered_map<Cube, std::size_t> by_cube;
  for (std::size_t i = 0; i < faulty_wires.size(); ++i) {
    const WireOutcome& o = result.outcomes[i];
    result.total_candidates += o.candidates_tried;
    result.total_mates += o.mates_found;
    if (o.status == WireStatus::Unmaskable) ++result.unmaskable_wires;
    result.busy_seconds += o.seconds;
    for (const Cube& c : cubes[i]) {
      const auto [it, inserted] =
          by_cube.try_emplace(c, result.set.mates.size());
      if (inserted) result.set.mates.push_back(Mate{c, {}});
      result.set.mates[it->second].masked_wires.push_back(faulty_wires[i]);
    }
  }
  result.set.faulty_wires = faulty_wires;
  result.dedup_classes = faulty_wires.size();
  result.threads_used = pool.participants();
  result.seconds = watch.seconds();
  return result;
}

} // namespace ripple::mate
