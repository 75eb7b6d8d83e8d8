// Validation V1: a full (simulated) HAFI fault-injection campaign on the AVR
// or MSP430 core with and without MATE pruning, on the shard-parallel
// campaign engine. Reports outcome classification, experiments saved by the
// pruning and each campaign's wall time; with --validate-pruned every
// pruned injection is executed anyway and the engine aborts on any that is
// not benign. `--resume` checkpoints finished shards to the artifact cache
// so a killed campaign picks up where it left off.
#include "hafi/campaign.hpp"
#include "mate/select.hpp"
#include "pipeline/harness.hpp"
#include "pipeline/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

int main(int argc, char** argv) {
  std::string core_name = "avr";
  // No --cycles: --run-cycles sets the golden and faulty runs.
  Harness h(argc, argv, "hafi_campaign",
            "Validation V1: simulated HAFI campaign with MATE pruning",
            kThreads | kCsv | kDepth | kTraceChunkCycles | kCampaignFlags,
            [&](OptionParser& p) {
              p.add_value("core", "target core: avr (default) or msp430",
                          &core_name, [](std::string_view name) {
                            return CoreRegistry::global().contains(
                                std::string(name));
                          });
            });
  const CampaignOptions& copts = h.campaign();

  hafi::CampaignConfig cfg;
  cfg.run_cycles = 1500;
  cfg.sample = 3000;
  cfg.seed = 42;
  cfg = copts.apply(cfg);

  h.pipe().progress("hafi_campaign: building %s core...", core_name.c_str());
  const CoreRuntime target = CoreRegistry::global().make(core_name, "fib");
  const netlist::Netlist& netlist = *target.netlist;

  const mate::SearchResult search =
      h.pipe().find_mates(netlist, target.fingerprint,
                          mate::all_flop_wires(netlist), h.params(),
                          core_name + " FF");
  // Ranked on the golden run's own chunk stream: the campaigns below read
  // the same cached chunks.
  ChunkedTraceStream trace(h.pipe(), target, cfg.run_cycles);
  const mate::SelectionResult sel = h.pipe().select_stream(
      search.set, trace, trace.fingerprint(), core_name + " FF, fib");
  const mate::MateSet top50 = mate::top_n(search.set, sel, 50);

  // Every campaign below runs one config, hence one plan: baseline and
  // pruned runs inject the exact same (flop, cycle) points. Planning reads
  // no trace.
  hafi::Campaign planner(target.target(), cfg, &trace);
  const hafi::CampaignPlan& plan = planner.plan();
  h.pipe().progress("hafi_campaign: %zu injection points in %zu shards of %zu",
                    plan.points.size(), plan.num_shards(), plan.shard_size);

  TablePrinter t({"campaign", "experiments", "executed", "pruned", "benign",
                  "latent", "SDC", "pruned&confirmed", "time [s]"});
  const auto row = [&](const std::string& name,
                       const hafi::CampaignResult& r, double secs) {
    t.add_row({name, fmt_count(r.total), fmt_count(r.executed),
               fmt_count(r.pruned), fmt_count(r.benign), fmt_count(r.latent),
               fmt_count(r.sdc), fmt_count(r.pruned_confirmed),
               strprintf("%.1f", secs)});
  };

  const auto spec_for = [&](hafi::CampaignMode mode,
                            const mate::MateSet* mates) {
    CampaignSpec spec;
    spec.runtime = target;
    spec.config = cfg;
    spec.config.mode = mode;
    spec.mates = mates;
    spec.resume = copts.resume;
    return spec;
  };
  const hafi::CampaignMode pruned_mode = copts.pruned_mode();

  try {
    Stopwatch w1;
    const hafi::CampaignResult base = h.pipe().campaign(
        spec_for(hafi::CampaignMode::Baseline, nullptr), "baseline");
    row("baseline (no pruning)", base, w1.seconds());

    Stopwatch w2;
    const hafi::CampaignResult full =
        h.pipe().campaign(spec_for(pruned_mode, &search.set),
                          "full MATE set");
    row(strprintf("full MATE set (%.*s)",
                  static_cast<int>(mode_name(pruned_mode).size()),
                  mode_name(pruned_mode).data()),
        full, w2.seconds());

    Stopwatch w3;
    const hafi::CampaignResult t50 =
        h.pipe().campaign(spec_for(pruned_mode, &top50), "top-50 MATEs");
    row(strprintf("top-50 MATEs (%.*s)",
                  static_cast<int>(mode_name(pruned_mode).size()),
                  mode_name(pruned_mode).data()),
        t50, w3.seconds());

    h.emit(t);

    const double saved = 100.0 * static_cast<double>(full.pruned) /
                         static_cast<double>(full.total);
    std::printf("\nfull MATE set prunes %.2f %% of the sampled campaign "
                "(%zu/%zu pruned injections confirmed benign).\n",
                saved, full.pruned_confirmed, full.pruned);
  } catch (const hafi::SoundnessError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
