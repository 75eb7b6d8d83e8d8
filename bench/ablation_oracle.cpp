// Ablation A3: completeness of the MATE approach versus the exact one-cycle
// masking oracle (flip-and-resimulate ground truth: the Masked label of
// hafi::masked_masks). The paper's approach is sound but incomplete — this
// bench measures how much of the truly-masked fault space the heuristic
// border MATEs recover.
#include "hafi/confine.hpp"
#include "mate/eval.hpp"
#include "mate/stream.hpp"
#include "pipeline/harness.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

struct OracleStats {
  std::size_t oracle_masked = 0;
  std::size_t mate_masked = 0;
  std::size_t space = 0;
  std::size_t unsound = 0; // MATE-masked but oracle-effective: must be zero
};

OracleStats compare(Harness& h, const CoreSetup& setup,
                    const std::vector<WireId>& wires, const std::string& label,
                    const sim::TransposedTrace& trace,
                    std::size_t cycle_stride) {
  const mate::SearchResult r =
      h.pipe().find_mates(setup, wires, h.params(), label);
  sim::TransposedTraceSource source(trace);
  const std::vector<BitVec> benign = mate::benign_masks(r.set, source);

  h.pipe().progress("ablation_oracle: exact oracle sweep (%s)...",
                    label.c_str());
  std::vector<hafi::FlopGroup> flops;
  for (const WireId w : wires) {
    flops.push_back({setup.netlist.wire(w).driver_flop});
  }
  const std::vector<BitVec> masked =
      hafi::masked_masks(setup.netlist, source, flops);

  OracleStats stats;
  for (std::size_t c = 0; c < trace.num_cycles(); c += cycle_stride) {
    for (std::size_t i = 0; i < wires.size(); ++i) {
      const bool exact = masked[i].get(c);
      const bool by_mate = benign[i].get(c);
      ++stats.space;
      if (exact) ++stats.oracle_masked;
      if (by_mate) ++stats.mate_masked;
      if (by_mate && !exact) ++stats.unsound;
    }
  }
  return stats;
}

} // namespace

int main(int argc, char** argv) {
  Harness h(argc, argv, "ablation_oracle",
            "Ablation A3: MATE completeness vs the exact masking oracle",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles);
  // The masks cover every cycle; the table counts every 8th one, the
  // sample EXPERIMENTS.md reports.
  constexpr std::size_t kStride = 8;

  TablePrinter t({"configuration", "oracle masked", "MATE masked",
                  "recovered", "unsound"});
  for (const CoreKind kind : {CoreKind::Avr, CoreKind::Msp430}) {
    const CoreSetup setup = h.setup(kind);
    for (const bool xrf : {false, true}) {
      const auto& wires = xrf ? setup.ff_xrf : setup.ff;
      const std::string label =
          setup.name + (xrf ? " FF w/o RF" : " FF");
      const OracleStats s =
          compare(h, setup, wires, label, setup.fib_trace, kStride);
      t.add_row({label + " (fib)",
                 fmt_percent(static_cast<double>(s.oracle_masked) /
                             static_cast<double>(s.space)),
                 fmt_percent(static_cast<double>(s.mate_masked) /
                             static_cast<double>(s.space)),
                 fmt_percent(s.oracle_masked == 0
                                 ? 0.0
                                 : static_cast<double>(s.mate_masked) /
                                       static_cast<double>(s.oracle_masked)),
                 fmt_count(s.unsound)});
    }
  }
  h.emit(t);
  std::printf("\n('recovered' = MATE-masked / oracle-masked; 'unsound' must "
              "be 0 — every MATE-pruned fault is exactly masked)\n");
  return 0;
}
