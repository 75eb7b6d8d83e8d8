// Artifact dumper: synthesis-style reports for both cores, their structural
// Verilog netlists, and the MATE sets as JSON/CSV — everything an external
// HAFI flow needs to integrate the pruning.
//
//   $ ./core_report [--cache-dir=DIR] [output-dir]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>

#include "mate/eval.hpp"
#include "mate/report.hpp"
#include "mate/search.hpp"
#include "netlist/verilog.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/stats.hpp"

using namespace ripple;

namespace {

void report(pipeline::CampaignPipeline& pipe,
            const pipeline::PipelineOptions& opts, const std::string& name,
            const pipeline::CoreSetup& setup,
            const std::filesystem::path& dir) {
  const netlist::Netlist& n = setup.netlist;
  sim::print_stats(sim::compute_stats(n), std::cout);

  {
    std::ofstream v(dir / (name + ".v"));
    netlist::write_verilog(n, v);
  }

  const mate::SearchResult search = pipe.find_mates(
      setup, setup.ff, opts.search_params(), setup.name + " FF");
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
  OptionParser parser("core_report",
                      "Dump netlists, reports and MATE sets for both cores");
  pipeline::PipelineOptions opts;
  pipeline::register_pipeline_options(parser, opts);
  std::vector<std::string> positional;
  parser.set_positional("output-dir", "artifact output directory (default .)",
                        &positional);
  switch (parser.parse(argc, argv)) {
    case OptionParser::Result::Ok: break;
    case OptionParser::Result::Help: return 0;
    case OptionParser::Result::Error: return 2;
  }
  const std::filesystem::path dir = positional.empty() ? "." : positional[0];
  std::filesystem::create_directories(dir);

  pipeline::CampaignPipeline pipe(opts.config());
  const auto progress = std::make_shared<pipeline::ProgressObserver>();
  pipe.add_observer(progress);

  {
    std::cout << "=== AVR core ===\n";
    const pipeline::CoreSetup setup =
        pipe.setup({pipeline::CoreKind::Avr, opts.cycles != 0 ? opts.cycles
                                                              : 2000});
    report(pipe, opts, "avr_core", setup, dir);
  }
  {
    std::cout << "=== MSP430 core ===\n";
    const pipeline::CoreSetup setup =
        pipe.setup({pipeline::CoreKind::Msp430, opts.cycles != 0 ? opts.cycles
                                                                 : 2000});
    report(pipe, opts, "msp430_core", setup, dir);
  }

  std::cout << "artifacts written to " << dir << ": *.v netlists, "
               "*_mates.{json,csv}\n";
  return 0;
}
