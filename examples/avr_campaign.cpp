// End-to-end HAFI workflow on the AVR core — the paper's use case:
//   1. assemble a workload,
//   2. derive MATEs from the netlist,
//   3. select the top-50 on a recorded trace,
//   4. run a fault-injection campaign twice (baseline vs. MATE-pruned)
//      and compare cost and outcome classification.
//
//   $ ./avr_campaign [--cache-dir=DIR] [--threads=N] [--resume] [sample-size]
#include <cstdlib>
#include <iostream>
#include <memory>

#include "cores/avr/assembler.hpp"
#include "hafi/campaign.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/registry.hpp"

using namespace ripple;

int main(int argc, char** argv) {
  OptionParser parser("avr_campaign",
                      "End-to-end HAFI campaign with MATE pruning on the AVR");
  pipeline::PipelineOptions opts;
  pipeline::register_pipeline_options(parser, opts);
  pipeline::CampaignOptions copts;
  pipeline::register_campaign_options(parser, copts);
  std::vector<std::string> positional;
  parser.set_positional("sample-size", "number of sampled injection points",
                        &positional);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }
  const std::size_t sample =
      positional.empty()
          ? 800
          : static_cast<std::size_t>(std::atoi(positional[0].c_str()));

  pipeline::CampaignPipeline pipe(opts.config());
  const auto progress = std::make_shared<pipeline::ProgressObserver>();
  pipe.add_observer(progress);

  // A small checksum workload: sums a memory block and reports the result.
  const cores::avr::Program program = cores::avr::assemble(R"(
.equ BASE, 0x20
start:
    ldi r26, BASE       ; X = block base
    ldi r16, 0          ; checksum
    ldi r17, 16         ; length
sum:
    ld r18, X
    add r16, r18
    inc r26
    dec r17
    brne sum
    out 0x00, r16       ; report checksum
    rjmp start
)");

  // The workload becomes a core target of its own, assembled by the
  // CoreRegistry exactly like the built-in "avr" and "msp430".
  pipeline::CoreRegistry::global().register_core(
      "avr-checksum", [program](std::string_view) {
        return pipeline::avr_runtime(program, "checksum");
      });
  std::cout << "building AVR core..." << std::endl;
  const pipeline::CoreRuntime target =
      pipeline::CoreRegistry::global().make("avr-checksum");
  const netlist::Netlist& netlist = *target.netlist;

  const mate::SearchResult search =
      pipe.find_mates(netlist, target.fingerprint,
                      mate::all_flop_wires(netlist), opts.search_params(),
                      "AVR FF");
  std::cout << "  " << search.set.mates.size() << " MATEs, "
            << search.unmaskable_wires << " unmaskable flip-flops\n";

  std::cout << "recording trace and selecting top-50..." << std::endl;
  pipeline::ChunkedTraceStream trace(pipe, target, 1500);
  const mate::SelectionResult sel = pipe.select_stream(
      search.set, trace, trace.fingerprint(), "checksum workload");
  const mate::MateSet top50 = mate::top_n(search.set, sel, 50);

  hafi::CampaignConfig cfg;
  cfg.run_cycles = 1000;
  cfg.sample = sample;
  cfg.seed = 7;
  cfg = copts.apply(cfg);

  const auto report = [](const char* name, const hafi::CampaignResult& r) {
    std::cout << name << ": " << r.total << " injections, executed "
              << r.executed << ", pruned " << r.pruned << " | benign "
              << r.benign << ", latent " << r.latent << ", SDC " << r.sdc
              << "\n";
  };

  // Both campaigns run one config, hence one plan: they inject the exact
  // same points. With --resume, finished shards checkpoint to the artifact
  // cache.
  const auto spec_for = [&](hafi::CampaignMode mode,
                            const mate::MateSet* mates) {
    pipeline::CampaignSpec spec;
    spec.runtime = target;
    spec.config = cfg;
    spec.config.mode = mode;
    spec.mates = mates;
    spec.resume = copts.resume;
    return spec;
  };

  const hafi::CampaignResult baseline =
      pipe.campaign(spec_for(hafi::CampaignMode::Baseline, nullptr),
                    "baseline");
  report("baseline ", baseline);

  const hafi::CampaignResult pruned =
      pipe.campaign(spec_for(copts.pruned_mode(), &top50), "top-50 MATEs");
  report("top-50   ", pruned);

  std::cout << "\nexperiments saved by 50 MATEs (~50 FPGA LUTs): "
            << pruned.pruned << " of " << pruned.total << " ("
            << 100.0 * static_cast<double>(pruned.pruned) /
                   static_cast<double>(pruned.total)
            << " %)\n";
  return 0;
}
