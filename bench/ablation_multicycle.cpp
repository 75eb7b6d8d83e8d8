// Ablation A4 (Section 6.2 outlook): how much fault space becomes benign
// when masking may take more than one clock cycle. The exact k-cycle oracle
// measures the headroom multi-cycle MATEs (future work in the paper) could
// reach; register-file faults dominate the growth because registers are
// overwritten cycles — not one cycle — later.
#include "pipeline/harness.hpp"
#include "sim/multicycle.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

struct Row {
  std::size_t masked = 0;
  std::size_t space = 0;
};

Row sweep(const CoreSetup& setup, const std::vector<WireId>& wires,
          const sim::Trace& trace, unsigned k, std::size_t stride) {
  sim::MultiCycleOracle oracle(setup.netlist);
  Row row;
  // Leave k cycles of headroom at the trace end so "not converged" never
  // conflates with "trace ended".
  for (std::size_t t = 0; t + k + 1 < trace.num_cycles(); t += stride) {
    for (WireId w : wires) {
      const FlopId f = setup.netlist.wire(w).driver_flop;
      ++row.space;
      if (oracle.masked_within(f, trace, t, k) != 0) ++row.masked;
    }
  }
  return row;
}

} // namespace

int main(int argc, char** argv) {
  // No --depth or --threads: nothing here searches or runs a pool.
  Harness h(argc, argv, "ablation_multicycle",
            "Ablation A4: k-cycle masking-oracle headroom",
            kCsv | kCycles | kTraceChunkCycles);
  // Shorter traces: the oracle resimulates k cycles per fault-space point.
  const CoreSetup avr = h.setup(CoreKind::Avr, 1200);
  const CoreSetup msp = h.setup(CoreKind::Msp430, 1200);
  constexpr std::size_t kStride = 16;

  TablePrinter t({"k cycles", "AVR FF", "AVR FF w/o RF", "MSP430 FF",
                  "MSP430 FF w/o RF"});
  for (unsigned k : {1u, 2u, 4u, 8u, 16u}) {
    h.pipe().progress("ablation_multicycle: k = %u...", k);
    std::vector<std::string> cells = {std::to_string(k)};
    for (const CoreSetup* s : {&avr, &msp}) {
      for (const auto* wires : {&s->ff, &s->ff_xrf}) {
        const Row row = sweep(*s, *wires, s->fib_trace, k, kStride);
        cells.push_back(fmt_percent(static_cast<double>(row.masked) /
                                    static_cast<double>(row.space)));
      }
    }
    t.add_row(std::move(cells));
  }
  h.emit(t);
  std::printf("\n(k = 1 is the paper's intra-cycle definition; growth at "
              "k > 1 is the headroom for the multi-bit/multi-cycle MATEs of "
              "Section 6.2 and the ISA-level pruning of Section 6.3)\n");
  return 0;
}
