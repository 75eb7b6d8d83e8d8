// Ablation A1: sweep of heuristic parameter 1 (fault-propagation path depth).
// Deeper searches see more maskable gates past the data path but enumerate
// more paths; the masked fraction saturates once the horizon clears the
// ALU + isolation gates of the core.
#include "mate/eval.hpp"
#include "pipeline/harness.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

int main(int argc, char** argv) {
  // No --depth: the sweep sets it.
  Harness h(argc, argv, "ablation_depth",
            "Ablation A1: path-depth sweep of the MATE search",
            kThreads | kCsv | kCycles | kTraceChunkCycles);
  const CoreSetup avr = h.setup(CoreKind::Avr);
  const CoreSetup msp = h.setup(CoreKind::Msp430);

  TablePrinter t({"depth", "AVR masked (fib)", "AVR #MATEs", "AVR time [s]",
                  "MSP430 masked (fib)", "MSP430 #MATEs", "MSP430 time [s]"});

  for (unsigned depth : {4u, 6u, 8u, 10u, 12u, 14u, 16u}) {
    std::vector<std::string> cells = {std::to_string(depth)};
    for (const CoreSetup* s : {&avr, &msp}) {
      mate::SearchParams params = h.params();
      params.path_depth = depth;
      // This run's find_mates call: a cache hit takes no search time.
      const Stopwatch search_time;
      const mate::SearchResult r =
          h.pipe().find_mates(*s, s->ff_xrf, params,
                              strprintf("%s, depth %u", s->name.c_str(),
                                        depth));
      const double seconds = search_time.seconds();
      sim::TransposedTraceSource fib(s->fib_trace);
      const mate::EvalResult e = h.pipe().evaluate_stream(
          r.set, fib, s->fib_trace_fp,
          strprintf("%s, depth %u, fib", s->name.c_str(), depth));
      cells.push_back(fmt_percent(e.masked_fraction()));
      cells.push_back(fmt_count(r.set.mates.size()));
      cells.push_back(strprintf("%.2f", seconds));
    }
    t.add_row(std::move(cells));
  }

  h.emit(t);
  return 0;
}
