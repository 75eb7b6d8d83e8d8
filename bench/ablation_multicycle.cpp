// Ablation A4 (Section 6.2 outlook): how much fault space becomes benign
// when masking may take more than one clock cycle. The exact k-cycle oracle
// measures the headroom multi-cycle MATEs (future work in the paper) could
// reach; register-file faults dominate the growth because registers are
// overwritten cycles — not one cycle — later.
#include <cstdint>

#include "hafi/confine.hpp"
#include "pipeline/harness.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

constexpr unsigned kMaxK = 16;

/// Fraction of (wire, cycle) points masked within k cycles. Every cycle
/// with k + 1 cycles of headroom counts, so "not converged" never conflates
/// with "trace ended".
double masked_share(const CoreSetup& setup, const std::vector<WireId>& wires,
                    const std::vector<std::vector<std::uint8_t>>& converged,
                    unsigned k) {
  std::size_t masked = 0;
  std::size_t space = 0;
  for (std::size_t t = 0; t + k + 1 < setup.fib_trace.num_cycles(); ++t) {
    for (const WireId w : wires) {
      const unsigned j =
          converged[setup.netlist.wire(w).driver_flop.index()][t];
      ++space;
      if (j != 0 && j <= k) ++masked;
    }
  }
  return static_cast<double>(masked) / static_cast<double>(space);
}

} // namespace

int main(int argc, char** argv) {
  // No --depth or --threads: nothing here searches or runs a pool.
  Harness h(argc, argv, "ablation_multicycle",
            "Ablation A4: k-cycle masking-oracle headroom",
            kCsv | kCycles | kTraceChunkCycles);
  const CoreSetup avr = h.setup(CoreKind::Avr, 1200);
  const CoreSetup msp = h.setup(CoreKind::Msp430, 1200);

  // One sweep per core at the largest budget answers every smaller k: a
  // fault masked within k cycles converges at some j <= k.
  const CoreSetup* const cores[] = {&avr, &msp};
  std::vector<std::vector<std::vector<std::uint8_t>>> converged;
  for (const CoreSetup* s : cores) {
    h.pipe().progress("ablation_multicycle: %s, k <= %u...", s->name.c_str(),
                      kMaxK);
    converged.push_back(
        hafi::convergence_cycles(s->netlist, s->fib_trace, kMaxK));
  }

  TablePrinter t({"k cycles", "AVR FF", "AVR FF w/o RF", "MSP430 FF",
                  "MSP430 FF w/o RF"});
  for (unsigned k : {1u, 2u, 4u, 8u, kMaxK}) {
    std::vector<std::string> cells = {std::to_string(k)};
    for (std::size_t c = 0; c < 2; ++c) {
      for (const auto* wires : {&cores[c]->ff, &cores[c]->ff_xrf}) {
        cells.push_back(
            fmt_percent(masked_share(*cores[c], *wires, converged[c], k)));
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
