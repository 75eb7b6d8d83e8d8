// Artifact dumper: synthesis-style reports for both cores, their structural
// Verilog netlists, and the MATE sets as JSON/CSV — everything an external
// HAFI flow needs to integrate the pruning.
//
//   $ ./core_report [--cache-dir=DIR] [output-dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "mate/eval.hpp"
#include "mate/report.hpp"
#include "mate/search.hpp"
#include "netlist/verilog.hpp"
#include "pipeline/harness.hpp"
#include "sim/stats.hpp"

using namespace ripple;

namespace {

void report(pipeline::Harness& h, const std::string& name,
            const pipeline::CoreSetup& setup,
            const std::filesystem::path& dir) {
  pipeline::CampaignPipeline& pipe = h.pipe();
  const netlist::Netlist& n = setup.netlist;
  sim::print_stats(sim::compute_stats(n), std::cout);

  {
    std::ofstream v(dir / (name + ".v"));
    netlist::write_verilog(n, v);
  }

  const mate::SearchResult search = pipe.find_mates(
      setup, setup.ff, h.params(), setup.name + " FF");
  const sim::TransposedTrace fib_words(setup.fib_trace);
  sim::TransposedTraceSource fib(fib_words);
  const mate::EvalResult eval = pipe.evaluate_stream(
      search.set, fib, setup.fib_trace_fp, setup.name + ", fib");
  std::cout << "  MATEs: " << search.set.mates.size() << " (merged), masked "
            << 100.0 * eval.masked_fraction() << " % of the fault space\n\n";

  {
    std::ofstream js(dir / (name + "_mates.json"));
    write_search_json(n, search, js);
  }
  {
    std::ofstream csv(dir / (name + "_mates.csv"));
    write_mate_csv(n, search.set, &eval, csv);
  }
}

} // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  pipeline::Harness h(
      argc, argv, "core_report",
      "Dump netlists, reports and MATE sets for both cores",
      pipeline::kThreads | pipeline::kDepth | pipeline::kCycles |
          pipeline::kTraceChunkCycles,
      [&](OptionParser& p) {
        p.set_positional("output-dir",
                         "artifact output directory (default .)",
                         &positional);
      });
  const std::filesystem::path dir = positional.empty() ? "." : positional[0];
  std::filesystem::create_directories(dir);

  std::cout << "=== AVR core ===\n";
  report(h, "avr_core", h.setup(pipeline::CoreKind::Avr, 2000), dir);
  std::cout << "=== MSP430 core ===\n";
  report(h, "msp430_core", h.setup(pipeline::CoreKind::Msp430, 2000), dir);

  std::cout << "artifacts written to " << dir << ": *.v netlists, "
               "*_mates.{json,csv}\n";
  return 0;
}
