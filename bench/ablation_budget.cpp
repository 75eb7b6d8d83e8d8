// Ablation A2: sweep of heuristic parameters 2 and 3 — the maximum number of
// gate-masking terms per MATE and the per-wire candidate budget.
#include "mate/eval.hpp"
#include "pipeline/harness.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

int main(int argc, char** argv) {
  Harness h(argc, argv, "ablation_budget",
            "Ablation A2: max-terms and candidate-budget sweeps",
            kThreads | kCsv | kDepth | kCycles | kTraceChunkCycles);
  const CoreSetup avr = h.setup(CoreKind::Avr);
  const CoreSetup msp = h.setup(CoreKind::Msp430);

  TablePrinter terms({"max terms", "AVR masked (conv)", "AVR avg #inputs",
                      "MSP430 masked (conv)", "MSP430 avg #inputs"});
  for (unsigned max_terms : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::vector<std::string> cells = {std::to_string(max_terms)};
    for (const CoreSetup* s : {&avr, &msp}) {
      mate::SearchParams params = h.params();
      params.max_terms = max_terms;
      const mate::SearchResult r = h.pipe().find_mates(
          *s, s->ff_xrf, params,
          strprintf("%s, max_terms %u", s->name.c_str(), max_terms));
      sim::TransposedTraceSource conv(s->conv_trace);
      const mate::EvalResult e = h.pipe().evaluate_stream(
          r.set, conv, s->conv_trace_fp,
          strprintf("%s, max_terms %u, conv", s->name.c_str(), max_terms));
      cells.push_back(fmt_percent(e.masked_fraction()));
      cells.push_back(strprintf("%.1f", e.avg_inputs));
    }
    terms.add_row(std::move(cells));
  }
  h.emit(terms);
  std::printf("\n");

  TablePrinter budget({"candidates/wire", "AVR masked (conv)",
                       "AVR candidates", "MSP430 masked (conv)",
                       "MSP430 candidates"});
  for (std::size_t cap : {100u, 1000u, 10000u, 100000u}) {
    std::vector<std::string> cells = {fmt_count(cap)};
    for (const CoreSetup* s : {&avr, &msp}) {
      mate::SearchParams params = h.params();
      params.max_candidates_per_wire = cap;
      const mate::SearchResult r = h.pipe().find_mates(
          *s, s->ff_xrf, params,
          strprintf("%s, budget %zu", s->name.c_str(), cap));
      sim::TransposedTraceSource conv(s->conv_trace);
      const mate::EvalResult e = h.pipe().evaluate_stream(
          r.set, conv, s->conv_trace_fp,
          strprintf("%s, budget %zu, conv", s->name.c_str(), cap));
      cells.push_back(fmt_percent(e.masked_fraction()));
      cells.push_back(fmt_count(r.total_candidates));
    }
    budget.add_row(std::move(cells));
  }
  h.emit(budget);
  return 0;
}
