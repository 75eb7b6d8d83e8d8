// Quickstart: build a small synchronous circuit with the RTL DSL, derive
// fault-masking terms (MATEs) for its flip-flops, and measure how much of
// the fault space they prune on a short execution trace.
//
//   $ ./quickstart [--cache-dir=DIR] [--threads=N] [--report=json]
//
// The circuit is a 4-bit accumulator with a write enable — the textbook
// situation MATEs exploit: while `en` is low, an SEU in the shadow register
// cannot reach the accumulator and is provably benign.
#include <iostream>
#include <memory>

#include "mate/eval.hpp"
#include "mate/search.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "rtl/module.hpp"
#include "rtl/optimize.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

using namespace ripple;

int main(int argc, char** argv) {
  OptionParser parser("quickstart",
                      "MATE search and pruning on a 4-bit accumulator");
  pipeline::PipelineOptions opts;
  pipeline::register_pipeline_options(parser, opts);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }
  pipeline::CampaignPipeline pipe(opts.config());
  const auto progress = std::make_shared<pipeline::ProgressObserver>();
  pipe.add_observer(progress);

  // --- 1. Describe a circuit with the RTL DSL -----------------------------
  rtl::Module m("accumulator");
  const WireId en = m.input("en");
  const rtl::Bus in = m.input_bus("in", 4);

  const rtl::Bus shadow = m.state("shadow", 4, 0); // captures `in` each cycle
  m.next(shadow, in);

  const rtl::Bus acc = m.state("acc", 4, 0); // acc += shadow while en
  m.next_en(acc, en, m.add(acc, shadow).sum);
  m.output_bus(acc);

  // Clean the netlist up the way synthesis would.
  netlist::Netlist n = rtl::optimize(m.take()).netlist;
  std::cout << "circuit: " << n.num_gates() << " gates, " << n.num_flops()
            << " flip-flops\n\n";

  // --- 2. Search for MATEs (cached when --cache-dir is given) --------------
  const std::vector<WireId> faulty = mate::all_flop_wires(n);
  const mate::SearchResult result =
      pipe.find_mates(n, pipeline::fingerprint(n), faulty,
                      opts.search_params(), "accumulator flops");

  std::cout << "MATEs found:\n";
  for (const mate::Mate& mt : result.set.mates) {
    std::cout << "  " << mt.cube.to_string(n) << "  masks "
              << mt.masked_wires.size() << " flop(s)\n";
  }

  // --- 3. Replay a trace and quantify the pruning --------------------------
  sim::Simulator sim(n);
  Rng rng(2024);
  sim::Trace trace =
      sim::record_trace(sim, 64, [&](sim::Simulator& s, std::size_t) {
        s.set_input(en, rng.next_below(4) == 0); // enable ~25% of cycles
        s.drive_bus(in, rng.next_below(16));
      });

  const sim::TransposedTrace words(trace);
  sim::TransposedTraceSource source(words);
  const mate::EvalResult eval = pipe.evaluate_stream(
      result.set, source, pipeline::fingerprint(trace),
      "random-stimulus trace");
  std::cout << "\nfault space: " << eval.fault_space() << " (flip-flops x "
            << eval.num_cycles << " cycles)\n"
            << "proven benign by MATEs: " << eval.masked_faults << " ("
            << 100.0 * eval.masked_fraction() << " %)\n"
            << "effective MATEs: " << eval.effective_mates << "\n";

  std::cout << "\nWith `en` low three quarters of the time, most shadow-"
               "register upsets never reach the accumulator —\nexactly the "
               "injections a HAFI campaign can now skip.\n";
  return 0;
}
