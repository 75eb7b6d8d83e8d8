// Heuristic MATE search (Section 4).
//
// Pipeline per possibly-faulty wire:
//   1. fault cone + border wires                      (cone.hpp)
//   2. fault-propagation paths up to a depth budget   (paths.hpp)
//   3. collect gate-masking terms over border wires   (gate_masking.hpp)
//   4. enumerate conjunctions of up to `max_terms` terms as MATE candidates,
//      bounded by `max_candidates_per_wire`; a candidate that blocks every
//      path is a MATE. The DFS assigns a candidate's literals in place (a
//      per-wire value array with an undo stack; no allocation per
//      candidate) and tests coverage over classes of paths that exactly
//      the same terms block, one bit per class: the terms' class bits lie
//      in flat word rows in DFS order, and each coverage test is word
//      ORs and ANDs against all ones, with no popcount
//   5. merge identical cubes across wires (one MATE may mask many faults)
//
// Steps 1-4 run once per cone-isomorphism class (mate/iso.hpp): every faulty
// wire's cone is fingerprinted, one representative per class of structurally
// identical cones is searched, and its cubes are remapped onto the other
// members over the border-wire correspondence. The result is byte-identical
// to searching every wire on its own (the per-wire oracle of tests/support).
// The classes fan out over a thread pool, largest cone first.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mate/mate.hpp"
#include "mate/paths.hpp"
#include "netlist/netlist.hpp"

namespace ripple::mate {

struct SearchParams {
  /// Heuristic parameter 1: path depth. The paper uses 8 on Design-Compiler
  /// netlists whose 15nm library has richer (higher-fanin) cells; our
  /// primitive-cell netlists need ~1.5x the gate count for the same logical
  /// depth, so the calibrated default is 14 (the depth ablation bench sweeps
  /// this parameter).
  unsigned path_depth = 14;
  /// Heuristic parameter 2: maximum gate-masking terms per MATE (paper: 4).
  unsigned max_terms = 4;
  /// Heuristic parameter 3: candidate budget per faulty wire (paper: 100000).
  std::size_t max_candidates_per_wire = 100000;
  /// Implementation bounds (documented deviations; see DESIGN.md).
  std::size_t max_paths_per_wire = 50000;
  std::size_t max_mates_per_wire = 256;
  /// Worker threads; 0 = hardware concurrency. Not part of any cache key:
  /// the thread count changes wall time, never results.
  std::size_t threads = 0;
};

enum class WireStatus {
  Found,           // at least one MATE found
  NoMate,          // enumeration finished / budget exhausted without success
  Unmaskable,      // a propagation path exists on which no gate can mask
  PathBudget,      // path enumeration overflowed max_paths_per_wire
};

struct WireOutcome {
  WireId wire;
  WireStatus status = WireStatus::NoMate;
  std::size_t cone_gates = 0;
  std::size_t border_wires = 0;
  std::size_t num_paths = 0;
  std::size_t candidates_tried = 0;
  std::size_t mates_found = 0;
  /// Wall time spent on this wire: the full search for class
  /// representatives, just the cube remap for other class members.
  double seconds = 0.0;
};

struct SearchResult {
  MateSet set;
  std::vector<WireOutcome> outcomes;

  // Aggregates for Table 1.
  std::size_t total_candidates = 0;
  std::size_t total_mates = 0; // pre-merge: sum over wires of mates_found
  std::size_t unmaskable_wires = 0;
  double seconds = 0.0;
  /// Threads the search ran on: the pool's workers plus the calling thread,
  /// which drains work too (ThreadPool::participants). Informational only,
  /// not part of any cache key — thread count does not change the result.
  std::size_t threads_used = 0;
  /// Isomorphism classes searched (one representative each). Informational
  /// only, like threads_used: not part of the MATE output.
  std::size_t dedup_classes = 0;
  /// Worker-busy seconds (cone fingerprinting + per-wire search + remap);
  /// the numerator of the pipeline's search_utilization stat.
  double busy_seconds = 0.0;

  [[nodiscard]] std::vector<std::size_t> cone_sizes() const;
};

/// Run the search for the given set of possibly-faulty wires (the fault model
/// of the evaluation uses flop Q outputs; any wire works, e.g. the primary
/// inputs of the Figure-1 example).
[[nodiscard]] SearchResult find_mates(const netlist::Netlist& n,
                                      const std::vector<WireId>& faulty_wires,
                                      const SearchParams& params = {});

/// Multi-bit upsets (Section 6.2 outlook): search MATEs for a *group* of
/// wires assumed to flip simultaneously (e.g. an MBU pair). A group MATE
/// blocks every propagation path of every group member, so when it holds the
/// whole multi-bit fault is benign within the cycle.
struct GroupOutcome {
  std::vector<WireId> wires;
  WireStatus status = WireStatus::NoMate;
  std::size_t cone_gates = 0;
  std::size_t num_paths = 0;
  std::size_t candidates_tried = 0;
  std::vector<Cube> mates;
};
[[nodiscard]] GroupOutcome find_group_mates(const netlist::Netlist& n,
                                            std::span<const WireId> group,
                                            const SearchParams& params = {});
/// Same, with precomputed topo positions (mate::topo_positions) so sweeps
/// over many groups — the MBU ablations — don't re-levelize per call.
[[nodiscard]] GroupOutcome find_group_mates(
    const netlist::Netlist& n, std::span<const WireId> group,
    const SearchParams& params,
    const std::vector<std::uint32_t>& topo_positions);

/// Bookkeeping behind the per-wire DFS's record(): keeps the found MATEs
/// minimal in *both* directions. A new term set is rejected when it is a
/// superset of a kept one, and kept sets that are supersets of the new one
/// are dropped — so the max_mates_per_wire budget only ever holds minimal
/// MATEs (the DFS can reach a superset combination before its subset).
class MinimalCubeRecorder {
public:
  void clear() {
    sets_.clear();
    cubes_.clear();
  }
  /// `term_set` must be sorted ascending. Returns true when the cube was
  /// kept (possibly evicting previously kept supersets).
  bool add(std::vector<std::size_t> term_set, const Cube& cube);
  [[nodiscard]] std::size_t size() const { return cubes_.size(); }
  /// Surviving cubes in recording order; leaves the recorder empty.
  [[nodiscard]] std::vector<Cube> take_cubes();

private:
  std::vector<std::vector<std::size_t>> sets_;
  std::vector<Cube> cubes_;
};

/// Faulty-wire helpers for the evaluation's two fault sets.
[[nodiscard]] std::vector<WireId> all_flop_wires(const netlist::Netlist& n);
[[nodiscard]] std::vector<WireId> flop_wires_excluding_prefix(
    const netlist::Netlist& n, std::string_view regfile_prefix);

} // namespace ripple::mate
