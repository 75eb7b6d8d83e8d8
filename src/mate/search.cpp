#include "mate/search.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "mate/gate_masking.hpp"
#include "mate/iso.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace ripple::mate {
namespace {

/// Search state for a single faulty wire. Reusable across wires: run_group
/// resets the per-wire state but keeps the term/BitVec scratch capacity, so
/// a pool worker constructs one of these, not one per wire.
class WireSearch {
public:
  WireSearch(const netlist::Netlist& n, const SearchParams& params,
             const std::vector<std::uint32_t>& topo)
      : n_(n), params_(params), topo_(topo) {}

  /// Runs the per-wire pipeline; fills `outcome` and returns found MATEs.
  std::vector<Cube> run(WireId wire, WireOutcome& outcome) {
    const WireId group[1] = {wire};
    return run_group(std::span<const WireId>(group, 1), outcome);
  }

  /// Same pipeline for a multi-bit fault group (union cone, paths from every
  /// origin, a candidate must block all of them).
  std::vector<Cube> run_group(std::span<const WireId> group,
                              WireOutcome& outcome) {
    outcome.wire = group[0];

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
      // The fault dies inside the cone without ever reaching an observer
      // (dangling logic): trivially benign in every cycle -> the constant-
      // true MATE masks it.
      outcome.status = WireStatus::Found;
      outcome.mates_found = 1;
      return {Cube{}};
    }
    num_paths_ = pr.paths.size();

    terms_.clear();
    if (!collect_terms(cone, pr)) {
      outcome.status = WireStatus::Unmaskable;
      return {};
    }

    // Order terms by coverage (most-blocking first) for effective pruning.
    order_.resize(terms_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                const std::size_t ca = terms_[a].blocks.popcount();
                const std::size_t cb = terms_[b].blocks.popcount();
                if (ca != cb) return ca > cb;
                return terms_[a].cube < terms_[b].cube;
              });

    // Suffix coverage: union of blocks of order_[i..]; prunes branches that
    // can no longer reach full coverage.
    suffix_.assign(order_.size() + 1, BitVec(num_paths_));
    for (std::size_t i = order_.size(); i-- > 0;) {
      suffix_[i] = suffix_[i + 1];
      suffix_[i] |= terms_[order_[i]].blocks;
    }
    full_ = BitVec(num_paths_, true);
    if (!(suffix_[0] == full_)) {
      // Even all terms together cannot block every path.
      outcome.status = WireStatus::Unmaskable;
      return {};
    }

    recorder_.clear();
    candidates_ = 0;
    chosen_.clear();
    // Per-depth coverage scratch (depth = chosen_.size()): dfs copies the
    // parent's coverage into slot depth+1 instead of heap-allocating a
    // BitVec per node. Slot 0 is the empty initial coverage.
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

  /// Collect instantiated gate-masking terms for every (gate, entry wire)
  /// pair on some path. A path's fault enters each of its gates through a
  /// known wire (the previous gate's output, or the faulty origin); only the
  /// pins bound to that wire are treated as faulty for the gate-masking
  /// lookup. This per-entry semantics is sound — any taint chain from the
  /// origin to an observer is an enumerated path, and blocking each path at
  /// its entry pin breaks every such chain — and is far less conservative
  /// than distrusting every cone pin at once: reconvergent cones would
  /// otherwise saturate gates ("all pins faulty") and lose all masking
  /// capability.
  ///
  /// Term indices are assigned in first-encounter order, so the hashed maps
  /// here yield the exact term list the old ordered-map version produced.
  ///
  /// Returns false when a path has no maskable gate at all (early abort,
  /// paper Section 4: such a wire is unmaskable within the depth horizon).
  bool collect_terms(const FaultCone& cone, const PathEnumResult& pr) {
    term_index_.clear();
    terms_of_.clear();

    const GateMaskingTable& gm = GateMaskingTable::instance();
    const auto collect = [&](GateId g, WireId entry)
        -> const std::vector<std::size_t>& {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(g.value()) << 32) | entry.value();
      const auto found = terms_of_.find(key);
      if (found != terms_of_.end()) return found->second;
      auto& slot = terms_of_[key];

      const netlist::Gate& gate = n_.gate(g);
      std::uint8_t faulty_mask = 0;
      for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
        if (gate.inputs[pin] == entry) {
          faulty_mask |= static_cast<std::uint8_t>(1u << pin);
        }
      }
      RIPPLE_ASSERT(faulty_mask != 0, "path gate does not read its entry");
      for (const PinCube& pc : gm.terms(gate.kind, faulty_mask)) {
        // Instantiate over border wires; a cube relying on a mistrusted
        // (cone) wire cannot be evaluated on golden values.
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
            term_index_.try_emplace(std::move(cube), terms_.size());
        if (inserted) {
          terms_.push_back(Term{it->first, BitVec(num_paths_)});
        }
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
      if (!maskable && !p.gates.empty()) return false;
      if (p.gates.empty()) return false; // origin itself is observable
    }
    return true;
  }

  /// Depth-first enumeration of term combinations in `order_` index order.
  /// `conj` is the conjunction of the chosen terms; the union of their
  /// blocked paths lives in cov_stack_[chosen_.size()] (per-depth scratch,
  /// no per-node heap allocation).
  void dfs(std::size_t from, const Cube& conj) {
    if (budget_exhausted()) return;
    const std::size_t depth = chosen_.size();
    const BitVec& covered = cov_stack_[depth];
    for (std::size_t i = from; i < order_.size(); ++i) {
      if (budget_exhausted()) return;
      if (chosen_.size() >= params_.max_terms) return;
      if (recorder_.size() >= params_.max_mates_per_wire) return;

      // Prune: remaining terms (including i) can no longer complete
      // coverage. full_ is all-ones over the paths, so coverage completion
      // is a popcount of the un-materialized union.
      if (covered.popcount_or(suffix_[i]) != num_paths_) return;

      const Term& t = terms_[order_[i]];

      // Useless term: adds no newly blocked path.
      if (t.blocks.is_subset_of(covered)) continue;

      const std::optional<Cube> next = conj.conjoin(t.cube);
      ++candidates_;
      if (!next) continue; // contradictory literals

      chosen_.push_back(order_[i]);
      BitVec& next_cov = cov_stack_[depth + 1];
      next_cov = covered; // copy-assign reuses the slot's capacity
      next_cov |= t.blocks;

      if (next_cov == full_) {
        record(*next);
      } else {
        dfs(i + 1, *next);
      }
      chosen_.pop_back();
    }
  }

  bool budget_exhausted() const {
    return candidates_ >= params_.max_candidates_per_wire;
  }

  void record(const Cube& cube) {
    std::vector<std::size_t> set = chosen_;
    std::sort(set.begin(), set.end());
    recorder_.add(std::move(set), cube);
  }

  const netlist::Netlist& n_;
  const SearchParams& params_;
  const std::vector<std::uint32_t>& topo_;

  std::size_t num_paths_ = 0;
  std::vector<Term> terms_;
  // collect_terms scratch: cube -> index into terms_, and the term list per
  // (gate << 32 | entry wire) pair. Node-based maps, so the references the
  // collect lambda hands out stay valid across later insertions.
  std::unordered_map<Cube, std::size_t> term_index_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> terms_of_;
  std::vector<std::size_t> order_;
  std::vector<BitVec> suffix_;
  BitVec full_;
  std::vector<BitVec> cov_stack_; // per-depth dfs coverage scratch

  MinimalCubeRecorder recorder_;
  std::vector<std::size_t> chosen_;
  std::size_t candidates_ = 0;
};

/// Hands out idle WireSearch instances so each pool worker keeps one warm
/// (term/BitVec scratch) instead of constructing per wire. The pool has no
/// worker ids, so this is a mutex-guarded free list; the lock is taken twice
/// per wire, negligible against a search.
class SearcherPool {
public:
  SearcherPool(const netlist::Netlist& n, const SearchParams& params,
               const std::vector<std::uint32_t>& topo)
      : n_(n), params_(params), topo_(topo) {}

  std::unique_ptr<WireSearch> acquire() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<WireSearch> s = std::move(idle_.back());
        idle_.pop_back();
        return s;
      }
    }
    return std::make_unique<WireSearch>(n_, params_, topo_);
  }

  void release(std::unique_ptr<WireSearch> s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(s));
  }

private:
  const netlist::Netlist& n_;
  const SearchParams& params_;
  const std::vector<std::uint32_t>& topo_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<WireSearch>> idle_;
};

} // namespace

bool MinimalCubeRecorder::add(std::vector<std::size_t> term_set,
                              const Cube& cube) {
  // Reject supersets (and duplicates) of anything already kept.
  for (const std::vector<std::size_t>& prev : sets_) {
    if (std::includes(term_set.begin(), term_set.end(), prev.begin(),
                      prev.end())) {
      return false;
    }
  }
  // Evict kept sets that the new one subsumes.
  std::size_t out = 0;
  for (std::size_t k = 0; k < sets_.size(); ++k) {
    if (std::includes(sets_[k].begin(), sets_[k].end(), term_set.begin(),
                      term_set.end())) {
      continue;
    }
    if (out != k) {
      sets_[out] = std::move(sets_[k]);
      cubes_[out] = std::move(cubes_[k]);
    }
    ++out;
  }
  sets_.resize(out);
  cubes_.resize(out);
  sets_.push_back(std::move(term_set));
  cubes_.push_back(cube);
  return true;
}

std::vector<Cube> MinimalCubeRecorder::take_cubes() {
  sets_.clear();
  return std::move(cubes_);
}

std::vector<std::size_t> SearchResult::cone_sizes() const {
  std::vector<std::size_t> v;
  v.reserve(outcomes.size());
  for (const WireOutcome& o : outcomes) v.push_back(o.cone_gates);
  return v;
}

std::vector<WireId> all_flop_wires(const netlist::Netlist& n) {
  std::vector<WireId> out;
  out.reserve(n.num_flops());
  for (FlopId f : n.all_flops()) out.push_back(n.flop(f).q);
  return out;
}

std::vector<WireId> flop_wires_excluding_prefix(const netlist::Netlist& n,
                                                std::string_view prefix) {
  std::vector<WireId> out;
  for (FlopId f : n.all_flops()) {
    if (!starts_with(n.flop(f).name, prefix)) out.push_back(n.flop(f).q);
  }
  return out;
}

SearchResult find_mates(const netlist::Netlist& n,
                        const std::vector<WireId>& faulty_wires,
                        const SearchParams& params) {
  RIPPLE_CHECK(params.max_terms >= 1, "max_terms must be at least 1");
  n.check();

  Stopwatch watch;
  const std::vector<std::uint32_t> topo = topo_positions(n);

  SearchResult result;
  result.outcomes.resize(faulty_wires.size());
  std::vector<std::vector<Cube>> cubes_per_wire(faulty_wires.size());
  // Wire index -> isomorphism class: lets the cross-wire merge below reuse
  // one class member's resolved mate indices for the next. same_as_rep marks
  // members whose remapped cube list is provably the representative's own
  // (identity remap on every used border rank); their cubes are never
  // materialized at all.
  std::vector<std::size_t> class_of(faulty_wires.size());
  std::vector<std::uint8_t> same_as_rep(faulty_wires.size(), 0);

  ThreadPool pool(params.threads);
  SearcherPool searchers(n, params, topo);

  const IsoGrouping grouping = group_isomorphic_cones(n, faulty_wires, pool);
  result.dedup_classes = grouping.classes.size();
  result.busy_seconds += grouping.busy_seconds;
  for (std::size_t c = 0; c < grouping.classes.size(); ++c) {
    for (std::size_t m : grouping.classes[c].members) class_of[m] = c;
  }

  // Largest cone first: a few big unique cones dominate wall time, so
  // they must start before the swarm of small register-file classes, not
  // after them (tail latency). grain=1 keeps the schedule order intact.
  std::vector<std::size_t> schedule(grouping.classes.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) schedule[i] = i;
  std::sort(schedule.begin(), schedule.end(),
            [&](std::size_t a, std::size_t b) {
              const std::size_t ga = grouping.classes[a].cone_gates;
              const std::size_t gb = grouping.classes[b].cone_gates;
              if (ga != gb) return ga > gb;
              return a < b;
            });

  pool.parallel_for_index(
      schedule.size(),
      [&](std::size_t si) {
        const IsoClass& cls = grouping.classes[schedule[si]];
        const std::size_t rep = cls.members[0];
        Stopwatch rep_watch;
        std::unique_ptr<WireSearch> search = searchers.acquire();
        cubes_per_wire[rep] =
            search->run(faulty_wires[rep], result.outcomes[rep]);
        searchers.release(std::move(search));
        result.outcomes[rep].seconds = rep_watch.seconds();

        // Border ranks the representative's literals actually touch: a
        // member whose border wires agree with the rep's on every used
        // rank gets the identity remap, so its cube list IS the rep's —
        // no cube is materialized and the merge reuses the rep's mate
        // indices verbatim.
        const std::vector<WireId>& rep_borders = grouping.borders[rep];
        std::vector<std::uint32_t> used_ranks;
        for (const Cube& c : cubes_per_wire[rep]) {
          for (const Literal& l : c.literals()) {
            const auto it = std::lower_bound(rep_borders.begin(),
                                             rep_borders.end(), l.wire);
            used_ranks.push_back(
                static_cast<std::uint32_t>(it - rep_borders.begin()));
          }
        }
        std::sort(used_ranks.begin(), used_ranks.end());
        used_ranks.erase(
            std::unique(used_ranks.begin(), used_ranks.end()),
            used_ranks.end());

        // Members inherit the representative's outcome (identical by
        // isomorphism) and its cubes, translated over the rank-preserving
        // border correspondence.
        for (std::size_t k = 1; k < cls.members.size(); ++k) {
          const std::size_t m = cls.members[k];
          Stopwatch member_watch;
          WireOutcome& o = result.outcomes[m];
          o = result.outcomes[rep];
          o.wire = faulty_wires[m];
          const std::vector<WireId>& mem_borders = grouping.borders[m];
          const bool identity = std::all_of(
              used_ranks.begin(), used_ranks.end(), [&](std::uint32_t r) {
                return mem_borders[r] == rep_borders[r];
              });
          if (identity) {
            same_as_rep[m] = 1;
          } else {
            cubes_per_wire[m].reserve(cubes_per_wire[rep].size());
            for (const Cube& c : cubes_per_wire[rep]) {
              cubes_per_wire[m].push_back(
                  remap_cube(c, rep_borders, mem_borders));
            }
          }
          o.seconds = member_watch.seconds();
        }
      },
      /*grain=*/1);

  for (const WireOutcome& o : result.outcomes) {
    result.busy_seconds += o.seconds;
  }

  // Merge identical cubes across wires: one MATE can prove several faults
  // benign (Section 4, step 3). Mate indices are assigned in first-seen
  // order, so the hashed index produces the exact ordered-map output.
  //
  // Class fast path: isomorphic siblings usually carry literally identical
  // cube lists (masking terms live on shared control wires — write enables,
  // address decodes — not on the per-bit wires the remap renames), so the
  // first-processed member's resolved mate indices are memoized per class
  // and reused whenever a later member's list compares equal. The reused
  // indices are exactly what the hash probes would return, so the output is
  // unchanged.
  struct ClassMergeMemo {
    const std::vector<Cube>* cubes = nullptr;
    std::vector<std::size_t> mate_ids;
  };
  std::vector<ClassMergeMemo> memo(result.dedup_classes);
  std::unordered_map<Cube, std::size_t> by_cube;
  by_cube.reserve(faulty_wires.size());
  std::vector<std::size_t> ids_scratch;
  for (std::size_t i = 0; i < faulty_wires.size(); ++i) {
    const WireOutcome& o = result.outcomes[i];
    result.total_candidates += o.candidates_tried;
    result.total_mates += o.mates_found;
    if (o.status == WireStatus::Unmaskable) ++result.unmaskable_wires;

    ClassMergeMemo& m = memo[class_of[i]];
    if (m.cubes != nullptr &&
        (same_as_rep[i] != 0 || *m.cubes == cubes_per_wire[i])) {
      for (std::size_t id : m.mate_ids) {
        result.set.mates[id].masked_wires.push_back(faulty_wires[i]);
      }
      continue;
    }
    ids_scratch.clear();
    for (const Cube& c : cubes_per_wire[i]) {
      const auto [it, inserted] =
          by_cube.try_emplace(c, result.set.mates.size());
      if (inserted) {
        result.set.mates.push_back(Mate{c, {}});
      }
      result.set.mates[it->second].masked_wires.push_back(faulty_wires[i]);
      ids_scratch.push_back(it->second);
    }
    // Only the class's first-merged member (the representative: members are
    // ascending and the rep is members[0]) seeds the memo, so the memo and
    // the same_as_rep flags always refer to the same cube list.
    if (m.cubes == nullptr) {
      m.cubes = &cubes_per_wire[i];
      m.mate_ids = ids_scratch;
    }
  }
  result.set.faulty_wires = faulty_wires;
  result.seconds = watch.seconds();
  result.threads_used = pool.thread_count();
  return result;
}

GroupOutcome find_group_mates(const netlist::Netlist& n,
                              std::span<const WireId> group,
                              const SearchParams& params) {
  return find_group_mates(n, group, params, topo_positions(n));
}

GroupOutcome find_group_mates(const netlist::Netlist& n,
                              std::span<const WireId> group,
                              const SearchParams& params,
                              const std::vector<std::uint32_t>& topo) {
  RIPPLE_CHECK(!group.empty(), "empty fault group");
  n.check();
  WireSearch search(n, params, topo);
  WireOutcome outcome;
  GroupOutcome out;
  out.wires.assign(group.begin(), group.end());
  out.mates = search.run_group(group, outcome);
  out.status = outcome.status;
  out.cone_gates = outcome.cone_gates;
  out.num_paths = outcome.num_paths;
  out.candidates_tried = outcome.candidates_tried;
  return out;
}

} // namespace ripple::mate
