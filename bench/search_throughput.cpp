// Microbenchmark: per-wire oracle vs isomorphic-cone-dedup MATE search.
//
// Runs the search twice per fault population — the per-wire oracle of
// tests/support (every wire searched from scratch) and find_mates (one
// search per cone-isomorphism class, cubes remapped onto the members) —
// over two populations of the selected core: the full flop set and the
// register file. The netlist is built directly (no workload traces: this
// stage is pure structure). Wall times take the best of --reps runs per
// mode and are reported, never gated on.
//
// The two populations tell the two halves of the dedup story. The register
// file is the structurally duplicated fault space (on the AVR: 256 flops in
// 32 classes) where class dedup turns directly into wall clock; the full
// flop set adds the structurally unique cones (instruction register, decode
// state) whose searches still run one by one.
//
// Doubles as the dedup end-to-end cross-check: the MATE set, the per-wire
// outcomes (status, counts) and the Table 1 aggregates must be identical
// between the two modes on both populations; any mismatch fails the run.
// With --check the binary additionally exits non-zero unless both
// populations group into exactly the expected number of classes — a
// structural property of the netlist, independent of search parameters,
// threads and machine load. The search_bench_smoke ctest target runs
// `--smoke --check` on trimmed search parameters.
#include "bench/common.hpp"

#include <cstdio>

#include "cores/avr/core.hpp"
#include "cores/msp430/core.hpp"
#include "mate/search.hpp"
#include "support/oracles.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace ripple;
using namespace ripple::bench;

/// Everything that must be byte-identical between oracle and dedup: the
/// merged MATE set and the per-wire / aggregate bookkeeping, timing and the
/// informational dedup_classes/threads_used fields excluded.
bool results_identical(const mate::SearchResult& a,
                       const mate::SearchResult& b) {
  if (!(a.set == b.set)) return false;
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const mate::WireOutcome& x = a.outcomes[i];
    const mate::WireOutcome& y = b.outcomes[i];
    if (x.wire != y.wire || x.status != y.status ||
        x.cone_gates != y.cone_gates || x.border_wires != y.border_wires ||
        x.num_paths != y.num_paths ||
        x.candidates_tried != y.candidates_tried ||
        x.mates_found != y.mates_found) {
      return false;
    }
  }
  return a.total_candidates == b.total_candidates &&
         a.total_mates == b.total_mates &&
         a.unmaskable_wires == b.unmaskable_wires;
}

struct ModeTiming {
  mate::SearchResult result;
  double best_seconds = 0.0;
};

/// Runs `search` `reps` times and keeps the best wall time (the runs are
/// deterministic, so every repetition returns the same result).
template <typename Search>
ModeTiming run_mode(std::size_t reps, Search&& search) {
  ModeTiming t;
  t.best_seconds = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    t.result = search();
    t.best_seconds = std::min(t.best_seconds, watch.seconds());
  }
  return t;
}

/// Flop wires and isomorphism classes per population, fixed by the core
/// netlists: what --check asserts.
struct ExpectedClasses {
  std::size_t wires;
  std::size_t classes;
};

std::vector<WireId> regfile_wires(const netlist::Netlist& n,
                                  std::string_view prefix) {
  std::vector<WireId> out;
  for (FlopId f : n.all_flops()) {
    if (n.flop(f).name.starts_with(prefix)) out.push_back(n.flop(f).q);
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  std::string core = "avr";
  std::size_t reps = 3;
  bool check = false;
  bool smoke = false;
  Harness h(argc, argv, "search_throughput",
            "per-wire oracle vs isomorphic-cone-dedup MATE search",
            [&](OptionParser& parser) {
              parser.add_value("core", "core to benchmark: avr or msp430",
                               &core);
              parser.add_value("reps",
                               "repetitions per mode (best wall time wins)",
                               &reps);
              parser.add_flag("check",
                              "exit non-zero unless both populations group "
                              "into the expected number of iso classes",
                              &check);
              parser.add_flag("smoke",
                              "trimmed search parameters for CI", &smoke);
            });
  if (core != "avr" && core != "msp430") {
    std::fprintf(stderr, "search_throughput: unknown --core '%s'\n",
                 core.c_str());
    return 2;
  }
  if (reps == 0) reps = 1;

  const netlist::Netlist n = core == "avr"
                                 ? cores::avr::build_avr_core(true).netlist
                                 : cores::msp430::build_msp430_core(true)
                                       .netlist;
  const std::string_view rf_prefix = core == "avr"
                                         ? cores::avr::kRegfilePrefix
                                         : cores::msp430::kRegfilePrefix;
  const std::vector<WireId> all_flops = mate::all_flop_wires(n);
  const std::vector<WireId> regfile = regfile_wires(n, rf_prefix);

  mate::SearchParams params = h.params();
  if (smoke) {
    params.path_depth = 10;
    params.max_candidates_per_wire = 5000;
  }

  h.progress("search_throughput: %s, %zu flop wires (%zu regfile), "
             "%zu reps/mode...",
             core.c_str(), all_flops.size(), regfile.size(), reps);

  TablePrinter t({"search_throughput " + std::string(core), "wall",
                  "wires/s", "classes", "speedup"});
  bool identical = true;
  bool classes_ok = true;

  const bool avr = core == "avr";
  const struct {
    const char* name;
    const std::vector<WireId>* wires;
    ExpectedClasses expected;
  } populations[] = {
      {"full flops", &all_flops, avr ? ExpectedClasses{305, 81}
                                     : ExpectedClasses{311, 296}},
      {"regfile", &regfile, avr ? ExpectedClasses{256, 32}
                                : ExpectedClasses{224, 224}},
  };
  for (const auto& pop : populations) {
    const ModeTiming off = run_mode(reps, [&] {
      return mate::find_mates_per_wire(n, *pop.wires, params);
    });
    const ModeTiming on = run_mode(
        reps, [&] { return mate::find_mates(n, *pop.wires, params); });

    if (!results_identical(off.result, on.result)) {
      std::fprintf(stderr,
                   "search_throughput: MODE MISMATCH on %s — dedup result "
                   "differs from the per-wire oracle\n",
                   pop.name);
      identical = false;
    }

    const double wires = static_cast<double>(pop.wires->size());
    const double speedup = off.best_seconds / std::max(on.best_seconds, 1e-9);
    t.add_row({std::string(pop.name) + ", per-wire oracle",
               strprintf("%.3f s", off.best_seconds),
               strprintf("%.1f", wires / std::max(off.best_seconds, 1e-9)),
               "-", "1.0x"});
    t.add_row({std::string(pop.name) + ", dedup",
               strprintf("%.3f s", on.best_seconds),
               strprintf("%.1f", wires / std::max(on.best_seconds, 1e-9)),
               fmt_count(on.result.dedup_classes),
               strprintf("%.1fx", speedup)});

    const mate::SearchResult& r = on.result;
    h.progress("search_throughput: %s %s: %zu wires -> %zu iso classes "
               "(%.1fx), search utilization %.0f %%",
               core.c_str(), pop.name, pop.wires->size(), r.dedup_classes,
               wires / std::max(static_cast<double>(r.dedup_classes), 1.0),
               100.0 * std::min(1.0, r.busy_seconds /
                                         std::max(static_cast<double>(
                                                      r.threads_used) *
                                                      r.seconds,
                                                  1e-9)));
    if (pop.wires->size() != pop.expected.wires ||
        r.dedup_classes != pop.expected.classes) {
      std::fprintf(stderr,
                   "search_throughput: %s %s: %zu wires in %zu iso classes, "
                   "expected %zu in %zu\n",
                   core.c_str(), pop.name, pop.wires->size(),
                   r.dedup_classes, pop.expected.wires,
                   pop.expected.classes);
      classes_ok = false;
    }
  }
  h.emit(t);

  if (!identical) return 1;
  if (check && !classes_ok) {
    std::fprintf(stderr,
                 "search_throughput: --check FAILED — iso class counts "
                 "differ from the expected ones\n");
    return 1;
  }
  return 0;
}
