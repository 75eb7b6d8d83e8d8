// Reproduces the Section 6.1 argument: the FPGA LUT cost of top-N MATE sets
// is negligible next to a HAFI platform's fault-injection control unit
// (1500-6000 LUTs in the literature) and a mid-range Virtex-6. A small
// pruned campaign on the AVR top-50 set then turns the cost into a rate:
// experiments saved per LUT spent on the fabric.
#include "hafi/campaign.hpp"
#include "mate/eval.hpp"
#include "mate/lut_cost.hpp"
#include "mate/select.hpp"
#include "pipeline/harness.hpp"
#include "pipeline/registry.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

int main(int argc, char** argv) {
  Harness h(argc, argv, "lutcost_hafi",
            "Section 6.1: FPGA LUT cost of top-N MATE sets",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles |
                kCampaignFlags);
  const CampaignOptions& copts = h.campaign();

  TablePrinter table({"MATE set", "#MATEs", "LUTs", "% of FI ctrl (low)",
                      "% of Virtex-6 LX240T"});
  const mate::HafiPlatformCosts ref;

  mate::MateSet avr_top50;
  std::size_t avr_top50_luts = 0;

  for (const CoreKind kind : {CoreKind::Avr, CoreKind::Msp430}) {
    const CoreSetup setup = h.setup(kind);
    const mate::SearchResult r = h.pipe().find_mates(
        setup, setup.ff_xrf, h.params(), setup.name + " FF w/o RF");
    const sim::TransposedTrace fib_words(setup.fib_trace);
    sim::TransposedTraceSource fib(fib_words);
    const mate::SelectionResult sel = h.pipe().select_stream(
        r.set, fib, setup.fib_trace_fp, setup.name + ", fib");
    for (const std::size_t n : {10u, 50u, 100u, 200u}) {
      const mate::MateSet sub = mate::top_n(r.set, sel, n);
      const std::size_t luts = mate::set_luts(sub);
      if (kind == CoreKind::Avr && n == 50) {
        avr_top50 = sub;
        avr_top50_luts = luts;
      }
      table.add_row(
          {setup.name + " top " + std::to_string(n), fmt_count(sub.mates.size()),
           fmt_count(luts),
           strprintf("%.1f %%", 100.0 * static_cast<double>(luts) /
                                    static_cast<double>(
                                        ref.controller_luts_low)),
           strprintf("%.2f %%", 100.0 * static_cast<double>(luts) /
                                    static_cast<double>(
                                        ref.virtex6_lx240t_luts))});
    }
    table.add_separator();
  }

  h.emit(table);
  std::printf("\nreference points: FI control unit %zu-%zu LUTs "
              "(Entrena et al. / FLINT), Virtex-6 LX240T: %zu LUTs\n",
              ref.controller_luts_low, ref.controller_luts_high,
              ref.virtex6_lx240t_luts);

  // What do those LUTs buy? Run a small pruned campaign against the AVR
  // top-50 set and report the pruned (= skipped) experiments per LUT.
  hafi::CampaignConfig cfg;
  cfg.run_cycles = 600;
  cfg.sample = 400;
  cfg.seed = 17;
  cfg = copts.apply(cfg);
  cfg.mode = copts.pruned_mode();

  CampaignSpec spec;
  spec.runtime = CoreRegistry::global().make("avr", "fib");
  spec.config = cfg;
  spec.mates = &avr_top50;
  spec.resume = copts.resume;
  try {
    const hafi::CampaignResult r =
        h.pipe().campaign(std::move(spec), "AVR top-50");
    std::printf("AVR top-50 campaign: %zu of %zu sampled experiments pruned "
                "-> %.2f experiments saved per LUT (%zu LUTs)\n",
                r.pruned, r.total,
                avr_top50_luts > 0
                    ? static_cast<double>(r.pruned) /
                          static_cast<double>(avr_top50_luts)
                    : 0.0,
                avr_top50_luts);
  } catch (const hafi::SoundnessError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
