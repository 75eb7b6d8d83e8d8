// Reproduces Table 1 of the paper: statistics of the heuristic MATE search
// for both processors and both fault sets (all flipflops / flipflops outside
// the register file).
//
// Rows: number of faulty wires, average and median fault-cone size (#gates),
// search run time, number of unmaskable wires, number of candidates tried,
// number of MATEs found (pre-merge, as the paper counts per-wire results).
// The search reads netlists only: both cores come from the CoreRegistry and
// no trace is recorded.
#include "pipeline/harness.hpp"
#include "pipeline/registry.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

struct Column {
  std::string label;
  std::size_t faulty_wires = 0;
  double avg_cone = 0;
  double med_cone = 0;
  double seconds = 0;
  std::size_t unmaskable = 0;
  std::size_t candidates = 0;
  std::size_t mates = 0;
  std::size_t dedup_classes = 0;
};

Column run(Harness& h, const CoreRuntime& core,
           const std::vector<WireId>& wires, const std::string& label) {
  // Run Time is this run's find_mates call: a cache hit takes no search
  // time, so a warm run shows its own (near-zero) time.
  const Stopwatch search_time;
  const mate::SearchResult r = h.pipe().find_mates(
      *core.netlist, core.fingerprint, wires, h.params(), label);
  Column c;
  c.seconds = search_time.seconds();
  c.label = label;
  c.faulty_wires = wires.size();
  const auto cones = r.cone_sizes();
  c.avg_cone = mean(cones);
  c.med_cone = median(cones);
  c.unmaskable = r.unmaskable_wires;
  c.candidates = r.total_candidates;
  c.mates = r.total_mates;
  c.dedup_classes = r.dedup_classes;
  return c;
}

} // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, "table1_search_stats",
            "Table 1: MATE search statistics for both cores and fault sets",
            kThreads | kCsv | kDepth);

  const std::pair<std::string, std::string> cores[] = {{"avr", "AVR"},
                                                       {"msp430", "MSP430"}};
  std::vector<Column> cols;
  for (const auto& [key, name] : cores) {
    const CoreRuntime core = CoreRegistry::global().make(key);
    const netlist::Netlist& n = *core.netlist;
    cols.push_back(run(h, core, mate::all_flop_wires(n), name + " FF"));
    cols.push_back(run(
        h, core, mate::flop_wires_excluding_prefix(n, core.regfile_prefix),
        name + " FF w/o RF"));
  }

  TablePrinter t({"Table 1", cols[0].label, cols[1].label, cols[2].label,
                  cols[3].label});
  const auto row = [&](const std::string& name, auto fmt) {
    std::vector<std::string> cells = {name};
    for (const Column& c : cols) cells.push_back(fmt(c));
    t.add_row(std::move(cells));
  };
  row("Faulty Wires", [](const Column& c) { return fmt_count(c.faulty_wires); });
  row("Avg. Cone [#gates]",
      [](const Column& c) { return strprintf("%.0f", c.avg_cone); });
  row("Med. Cone [#gates]",
      [](const Column& c) { return strprintf("%.0f", c.med_cone); });
  row("Run Time [s]",
      [](const Column& c) { return strprintf("%.2f", c.seconds); });
  t.add_separator();
  row("#Unmaskable", [](const Column& c) { return fmt_count(c.unmaskable); });
  row("#MATE candid.", [](const Column& c) { return fmt_sci(
                           static_cast<double>(c.candidates)); });
  row("#MATE", [](const Column& c) { return fmt_count(c.mates); });
  t.add_separator();
  // Cone-isomorphism dedup (PR 8): searched classes and the wires-per-class
  // ratio. "-" on cache replays of pre-dedup artifacts (classes == 0).
  row("#Iso classes", [](const Column& c) {
    return c.dedup_classes == 0 ? std::string("-")
                                : fmt_count(c.dedup_classes);
  });
  row("Dedup ratio", [](const Column& c) {
    return c.dedup_classes == 0
               ? std::string("-")
               : strprintf("%.1fx", static_cast<double>(c.faulty_wires) /
                                        static_cast<double>(c.dedup_classes));
  });

  h.emit(t);
  return 0;
}
