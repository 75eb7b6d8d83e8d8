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

/// splitmix64's finalizer: spreads a term id over 64 bits, so the sum of a
/// path's mixed term ids is an order-free key of its term set.
std::uint64_t mix_id(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Search state for a single faulty wire. Reusable across wires: run_group
/// resets the per-wire state but keeps the scratch capacity, and the DFS
/// leaves the wire-value array as it found it, so a pool worker constructs
/// one of these, not one per wire.
class WireSearch {
public:
  WireSearch(const netlist::Netlist& n, const SearchParams& params,
             const std::vector<std::uint32_t>& topo)
      : n_(n), params_(params), topo_(topo),
        slots_(n.num_gates() * cell::kMaxInputs),
        value_(n.num_wires(), kFree) {}

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

    terms_.clear();
    if (!collect_terms(cone, pr)) {
      outcome.status = WireStatus::Unmaskable;
      return {};
    }

    // Order terms by the paths they block (most first) for effective
    // pruning; ties by cube.
    order_.resize(terms_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                if (terms_[a].paths != terms_[b].paths) {
                  return terms_[a].paths > terms_[b].paths;
                }
                return terms_[a].cube < terms_[b].cube;
              });
    lay_out_rows();

    recorder_.clear();
    candidates_ = 0;
    chosen_.clear();
    RIPPLE_ASSERT(assigned_.empty());
    dfs(0);

    outcome.candidates_tried = candidates_;
    outcome.mates_found = recorder_.size();
    outcome.status =
        recorder_.size() == 0 ? WireStatus::NoMate : WireStatus::Found;
    return recorder_.take_cubes();
  }

private:
  struct Term {
    Cube cube;
    std::size_t paths = 0; // paths blocked: the sizes of its classes
  };

  /// The term ids of one (gate, entry pin) pair: slot_terms_[begin, end),
  /// valid when `generation` is the current collect_terms call's.
  struct TermSlot {
    std::size_t generation = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  static constexpr std::uint8_t kFree = 2; // value_ of an unassigned wire
  static constexpr std::uint32_t kNoClass = ~std::uint32_t{0};
  static constexpr std::uint64_t kOnes = ~std::uint64_t{0};

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
  /// A pair's terms are looked up in slots_ by the gate and the first pin
  /// bound to the entry wire (which names the wire), built on the pair's
  /// first encounter. Term indices are assigned in first-encounter order
  /// over the paths, so they do not depend on how the pairs are stored.
  ///
  /// Paths blocked by exactly the same terms form one class. A path's
  /// de-duplicated term ids (a per-term stamp) are keyed by the sum of their
  /// mixed ids; a key hit is confirmed when the class has as many terms as
  /// the path and every one carries the path's stamp. No per-path
  /// allocation, no sort.
  ///
  /// Returns false when a path has no maskable gate at all (early abort,
  /// paper Section 4: such a wire is unmaskable within the depth horizon).
  bool collect_terms(const FaultCone& cone, const PathEnumResult& pr) {
    term_index_.clear();
    ++generation_;
    slot_terms_.clear();
    stamp_.clear();
    class_by_key_.clear();
    class_next_.clear();
    class_paths_.clear();
    class_terms_.clear();
    class_begin_.assign(1, 0);

    const GateMaskingTable& gm = GateMaskingTable::instance();
    const auto collect = [&](GateId g,
                             WireId entry) -> std::span<const std::size_t> {
      const netlist::Gate& gate = n_.gate(g);
      std::size_t first = 0;
      while (first < gate.inputs.size() && gate.inputs[first] != entry) {
        ++first;
      }
      RIPPLE_ASSERT(first < gate.inputs.size(),
                    "path gate does not read its entry");
      TermSlot& slot = slots_[g.index() * cell::kMaxInputs + first];
      if (slot.generation == generation_) return terms_in(slot);
      slot.generation = generation_;
      slot.begin = static_cast<std::uint32_t>(slot_terms_.size());

      std::uint8_t faulty_mask = 0;
      for (std::size_t pin = first; pin < gate.inputs.size(); ++pin) {
        if (gate.inputs[pin] == entry) {
          faulty_mask |= static_cast<std::uint8_t>(1u << pin);
        }
      }
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
          terms_.push_back(Term{it->first, 0});
          stamp_.push_back(0);
        }
        slot_terms_.push_back(it->second);
      }
      slot.end = static_cast<std::uint32_t>(slot_terms_.size());
      return terms_in(slot);
    };

    for (std::size_t pi = 0; pi < pr.paths.size(); ++pi) {
      const Path& p = pr.paths[pi];
      const std::size_t stamp = pi + 1;
      path_terms_.clear();
      std::uint64_t key = 0;
      WireId entry = p.origin;
      for (GateId g : p.gates) {
        for (std::size_t t : collect(g, entry)) {
          if (stamp_[t] == stamp) continue;
          stamp_[t] = stamp;
          path_terms_.push_back(t);
          key += mix_id(t);
        }
        entry = n_.gate(g).output;
      }
      // No maskable gate, or the origin itself is observable.
      if (path_terms_.empty()) return false;

      const auto head = class_by_key_.try_emplace(key, kNoClass).first;
      std::uint32_t c = head->second;
      while (c != kNoClass && !same_terms(c, stamp)) c = class_next_[c];
      if (c == kNoClass) {
        c = static_cast<std::uint32_t>(class_paths_.size());
        class_next_.push_back(head->second);
        head->second = c;
        class_paths_.push_back(0);
        class_terms_.insert(class_terms_.end(), path_terms_.begin(),
                            path_terms_.end());
        class_begin_.push_back(class_terms_.size());
      }
      ++class_paths_[c];
    }

    num_classes_ = class_paths_.size();
    for (std::size_t c = 0; c < num_classes_; ++c) {
      for (std::size_t k = class_begin_[c]; k < class_begin_[c + 1]; ++k) {
        terms_[class_terms_[k]].paths += class_paths_[c];
      }
    }
    return true;
  }

  /// The term ids a filled slot holds.
  std::span<const std::size_t> terms_in(const TermSlot& slot) const {
    return std::span<const std::size_t>(slot_terms_)
        .subspan(slot.begin, slot.end - slot.begin);
  }

  /// Does class `c` hold exactly the terms of the path stamped `stamp`
  /// (path_terms_)?
  bool same_terms(std::uint32_t c, std::size_t stamp) const {
    const std::size_t begin = class_begin_[c];
    const std::size_t end = class_begin_[c + 1];
    if (end - begin != path_terms_.size()) return false;
    for (std::size_t k = begin; k < end; ++k) {
      if (stamp_[class_terms_[k]] != stamp) return false;
    }
    return true;
  }

  /// Lays the sorted terms out in DFS order, words_ words per row: row i of
  /// rows_ holds the classes the term at position i blocks, row i of
  /// suffix_ the union of rows i.. (row T is empty), and lits_ row i's
  /// literals from lit_begin_[i]. cov_ gets one row per DFS depth, row 0
  /// the empty coverage. No row sets a bit at or past num_classes_.
  void lay_out_rows() {
    const std::size_t num_terms = order_.size();
    words_ = (num_classes_ + 63) / 64;
    const std::size_t live = num_classes_ % 64;
    tail_ = live == 0 ? kOnes : (std::uint64_t{1} << live) - 1;

    position_.resize(num_terms);
    lits_.clear();
    lit_begin_.assign(1, 0);
    for (std::size_t i = 0; i < num_terms; ++i) {
      position_[order_[i]] = i;
      const std::vector<Literal>& l = terms_[order_[i]].cube.literals();
      lits_.insert(lits_.end(), l.begin(), l.end());
      lit_begin_.push_back(lits_.size());
    }

    rows_.assign(num_terms * words_, 0);
    for (std::size_t c = 0; c < num_classes_; ++c) {
      const std::uint64_t bit = std::uint64_t{1} << (c & 63);
      for (std::size_t k = class_begin_[c]; k < class_begin_[c + 1]; ++k) {
        rows_[position_[class_terms_[k]] * words_ + (c >> 6)] |= bit;
      }
    }
    suffix_.assign((num_terms + 1) * words_, 0);
    for (std::size_t i = num_terms; i-- > 0;) {
      for (std::size_t w = 0; w < words_; ++w) {
        suffix_[i * words_ + w] =
            suffix_[(i + 1) * words_ + w] | rows_[i * words_ + w];
      }
    }
    // Every class has a term, so all terms together cover every class.
    RIPPLE_ASSERT(covers_all(&suffix_[0], &suffix_[0]),
                  "a path class without a term");
    cov_.assign((params_.max_terms + 1) * words_, 0);
  }

  /// Is every class set in a | b? Each word must be all ones, the last one
  /// under tail_, its live bits. No row sets a dead bit, so this is exactly
  /// "the union's popcount is num_classes_".
  bool covers_all(const std::uint64_t* a, const std::uint64_t* b) const {
    const std::size_t last = words_ - 1;
    std::uint64_t all = (a[last] | b[last]) | ~tail_;
    for (std::size_t w = 0; w < last; ++w) all &= a[w] | b[w];
    return all == kOnes;
  }

  /// next = covered | row in one pass; true when next covers every class.
  bool cover_with(std::uint64_t* next, const std::uint64_t* covered,
                  const std::uint64_t* row) const {
    const std::size_t last = words_ - 1;
    std::uint64_t all = kOnes;
    for (std::size_t w = 0; w < last; ++w) {
      const std::uint64_t x = covered[w] | row[w];
      next[w] = x;
      all &= x;
    }
    next[last] = covered[last] | row[last];
    return (all & (next[last] | ~tail_)) == kOnes;
  }

  /// Does `row` block only classes `covered` already holds?
  bool adds_nothing(const std::uint64_t* row,
                    const std::uint64_t* covered) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if ((row[w] & ~covered[w]) != 0) return false;
    }
    return true;
  }

  /// Depth-first enumeration of term combinations in DFS order (`order_`).
  /// The chosen terms' literals are assigned in value_ (recorded on
  /// assigned_, undone on return); the union of their blocked classes is
  /// cov_'s row chosen_.size(). No per-node heap allocation.
  void dfs(std::size_t from) {
    if (budget_exhausted()) return;
    const std::size_t depth = chosen_.size();
    const std::uint64_t* covered = &cov_[depth * words_];
    for (std::size_t i = from; i < order_.size(); ++i) {
      if (budget_exhausted()) return;
      if (chosen_.size() >= params_.max_terms) return;
      if (recorder_.size() >= params_.max_mates_per_wire) return;

      // Prune: remaining terms (including i) can no longer complete
      // coverage.
      if (!covers_all(covered, &suffix_[i * words_])) return;

      const std::uint64_t* row = &rows_[i * words_];

      // Useless term: adds no newly blocked path.
      if (adds_nothing(row, covered)) continue;

      const std::size_t mark = assigned_.size();
      const bool consistent = assign(i);
      ++candidates_;
      if (!consistent) { // contradictory literals
        undo(mark);
        continue;
      }

      chosen_.push_back(order_[i]);
      if (cover_with(&cov_[(depth + 1) * words_], covered, row)) {
        record();
      } else {
        dfs(i + 1);
      }
      chosen_.pop_back();
      undo(mark);
    }
  }

  /// Assigns the literals of the term at DFS position `row` in value_;
  /// false at the first literal that contradicts an assigned wire. Newly
  /// assigned literals go on assigned_ either way, for the caller's undo.
  bool assign(std::size_t row) {
    for (std::size_t k = lit_begin_[row]; k < lit_begin_[row + 1]; ++k) {
      const Literal& l = lits_[k];
      std::uint8_t& v = value_[l.wire.index()];
      const auto want = static_cast<std::uint8_t>(l.value ? 1 : 0);
      if (v == kFree) {
        v = want;
        assigned_.push_back(l);
      } else if (v != want) {
        return false;
      }
    }
    return true;
  }

  /// Frees every wire assigned since assigned_ held `mark` literals.
  void undo(std::size_t mark) {
    for (std::size_t k = mark; k < assigned_.size(); ++k) {
      value_[assigned_[k].wire.index()] = kFree;
    }
    assigned_.resize(mark);
  }

  bool budget_exhausted() const {
    return candidates_ >= params_.max_candidates_per_wire;
  }

  /// The conjunction is the assigned literals; the sorting constructor
  /// yields the cube Cube::conjoin's merge would have built.
  void record() {
    std::vector<std::size_t> set = chosen_;
    std::sort(set.begin(), set.end());
    recorder_.add(std::move(set), Cube(assigned_));
  }

  const netlist::Netlist& n_;
  const SearchParams& params_;
  const std::vector<std::uint32_t>& topo_;

  std::vector<Term> terms_;
  // collect_terms scratch: cube -> index into terms_, and the term ids of
  // each (gate, first entry pin) pair, slots_[gate * cell::kMaxInputs +
  // pin], stamped with the collect_terms call (generation_) that built them.
  std::unordered_map<Cube, std::size_t> term_index_;
  std::vector<TermSlot> slots_;
  std::vector<std::size_t> slot_terms_;
  std::size_t generation_ = 0;
  // Path classes: stamp_[term] is the last path (index + 1) that collected
  // the term; path_terms_ the current path's distinct terms. Class c holds
  // class_paths_[c] paths and the terms class_terms_[class_begin_[c] ..
  // class_begin_[c + 1]); class_by_key_ maps a term-set key to the newest
  // class with that key, class_next_ chains older ones.
  std::vector<std::size_t> stamp_;
  std::vector<std::size_t> path_terms_;
  std::unordered_map<std::uint64_t, std::uint32_t> class_by_key_;
  std::vector<std::uint32_t> class_next_;
  std::vector<std::size_t> class_paths_;
  std::vector<std::size_t> class_terms_;
  std::vector<std::size_t> class_begin_;
  std::size_t num_classes_ = 0;

  // DFS order and its flat rows (lay_out_rows): order_[i] is the term id at
  // position i, position_ the inverse. words_ words per row; tail_ masks
  // the last word's live bits.
  std::vector<std::size_t> order_;
  std::vector<std::size_t> position_;
  std::size_t words_ = 0;
  std::uint64_t tail_ = 0;
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> suffix_;
  std::vector<std::uint64_t> cov_;
  std::vector<Literal> lits_;
  std::vector<std::size_t> lit_begin_;

  // In-place conjunction: value_[wire] is kFree, 0 or 1; assigned_ lists
  // the assigned literals in assignment order (the undo stack).
  std::vector<std::uint8_t> value_;
  std::vector<Literal> assigned_;

  MinimalCubeRecorder recorder_;
  std::vector<std::size_t> chosen_;
  std::size_t candidates_ = 0;
};

/// Hands out idle WireSearch instances so each pool worker keeps one warm
/// (term and row scratch) instead of constructing per wire. The pool has no
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
  result.threads_used = pool.participants();
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
