// Section 6.3: the paper envisions combining flipflop-level HAFI pruning
// (MATEs) with ISA-level software-based pruning that "takes over" for
// register-file faults. This bench quantifies that combination on the AVR:
// MATEs cover pipeline/stage/flag flops, the def-use analysis covers the
// register file, and their union prunes far more than either alone.
#include "cores/avr/core.hpp"
#include "hafi/campaign.hpp"
#include "hafi/defuse.hpp"
#include "mate/eval.hpp"
#include "mate/stream.hpp"
#include "pipeline/harness.hpp"
#include "pipeline/registry.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

struct Fractions {
  double mates = 0;
  double defuse = 0;
  double combined = 0;
};

Fractions measure(const CoreSetup& avr, const mate::MateSet& set,
                  const sim::Trace& trace) {
  const sim::TransposedTrace words(trace);
  sim::TransposedTraceSource source(words);
  const std::vector<BitVec> mate_benign = mate::benign_masks(set, source);
  const hafi::AvrRegAccesses accesses =
      hafi::analyze_avr_accesses(avr.netlist, trace);
  const hafi::DefUseResult defuse = hafi::defuse_prune(accesses);

  std::size_t space = 0;
  std::size_t by_mate = 0;
  std::size_t by_defuse = 0;
  std::size_t by_union = 0;
  for (std::size_t i = 0; i < avr.ff.size(); ++i) {
    // Map register-file flops ("rf<reg>[bit]") to architectural registers.
    const std::string& flop_name =
        avr.netlist.flop(avr.netlist.wire(avr.ff[i]).driver_flop).name;
    int reg = -1;
    if (flop_name.starts_with(cores::avr::kRegfilePrefix)) {
      reg = std::atoi(flop_name.c_str() + cores::avr::kRegfilePrefix.size());
    }
    for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
      ++space;
      const bool m = mate_benign[i].get(c);
      const bool d =
          reg >= 0 && defuse.benign[static_cast<std::size_t>(reg)][c];
      by_mate += m ? 1 : 0;
      by_defuse += d ? 1 : 0;
      by_union += (m || d) ? 1 : 0;
    }
  }
  Fractions f;
  f.mates = static_cast<double>(by_mate) / static_cast<double>(space);
  f.defuse = static_cast<double>(by_defuse) / static_cast<double>(space);
  f.combined = static_cast<double>(by_union) / static_cast<double>(space);
  return f;
}

} // namespace

int main(int argc, char** argv) {
  // No --validate-pruned: the campaign below always validates.
  Harness h(argc, argv, "combined_pruning",
            "Section 6.3: MATE + ISA-level def-use pruning on the AVR",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles |
                kSample | kRunCycles | kShardSize | kResume);
  const CampaignOptions& copts = h.campaign();
  const CoreSetup avr = h.setup(CoreKind::Avr);

  const mate::SearchResult search =
      h.pipe().find_mates(avr, avr.ff, h.params(), "AVR FF");

  h.pipe().progress("combined_pruning: evaluating traces...");
  const Fractions fib = measure(avr, search.set, avr.fib_trace);
  const Fractions conv = measure(avr, search.set, avr.conv_trace);

  TablePrinter t({"pruned share of the AVR FF fault space", "fib", "conv"});
  t.add_row({"MATEs (intra-cycle, flipflop level)", fmt_percent(fib.mates),
             fmt_percent(conv.mates)});
  t.add_row({"def-use (ISA level, register file)", fmt_percent(fib.defuse),
             fmt_percent(conv.defuse)});
  t.add_row({"combined (union)", fmt_percent(fib.combined),
             fmt_percent(conv.combined)});
  h.emit(t);

  std::printf("\n(the paper's Section 6.3: HAFI with MATEs on flipflop "
              "level, software-based def-use pruning taking over for the "
              "register file)\n");

  // Soundness cross-check: a small sharded campaign in validate mode
  // executes every MATE-pruned injection anyway and aborts if one turns out
  // non-benign — the static pruned-share numbers above are only meaningful
  // when this passes.
  hafi::CampaignConfig cfg;
  cfg.run_cycles = 600;
  cfg.sample = 400;
  cfg.seed = 11;
  cfg = copts.apply(cfg);
  cfg.mode = hafi::CampaignMode::Validate;

  CampaignSpec spec;
  spec.runtime = CoreRegistry::global().make("avr", "fib");
  spec.config = cfg;
  spec.mates = &search.set;
  spec.resume = copts.resume;
  try {
    const hafi::CampaignResult r =
        h.pipe().campaign(std::move(spec), "AVR FF, validate");
    std::printf("validate campaign: %zu/%zu pruned injections executed and "
                "confirmed benign (%zu experiments total)\n",
                r.pruned_confirmed, r.pruned, r.total);
  } catch (const hafi::SoundnessError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
