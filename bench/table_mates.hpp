// Shared generator for Tables 2 (AVR) and 3 (MSP430): MATE performance on
// the fib()/conv() traces, the top-N selection sweep and its
// cross-validation (select on one program, evaluate on both).
#pragma once

#include "mate/eval.hpp"
#include "mate/select.hpp"
#include "pipeline/harness.hpp"
#include "util/strings.hpp"

namespace ripple::bench {

inline void run_mate_performance_table(pipeline::Harness& h,
                                       const pipeline::CoreSetup& setup,
                                       const char* table_name) {
  pipeline::CampaignPipeline& pipe = h.pipe();
  TablePrinter t({std::string(table_name) + " " + setup.name + " MATEs",
                  "fib FF", "fib FF w/o RF", "conv FF", "conv FF w/o RF"});

  struct SetEval {
    mate::SearchResult search;
    mate::EvalResult fib;
    mate::EvalResult conv;
    mate::SelectionResult sel_fib;
    mate::SelectionResult sel_conv;
  };

  // Column order: (fib FF), (fib xRF), (conv FF), (conv xRF); the fault set
  // is per column pair, the trace alternates.
  SetEval ff;
  ff.search =
      pipe.find_mates(setup, setup.ff, h.params(), setup.name + " FF");
  SetEval xrf;
  xrf.search = pipe.find_mates(setup, setup.ff_xrf, h.params(),
                               setup.name + " FF w/o RF");

  // Every stage below replays the setup's wire-major traces.
  sim::TransposedTraceSource fib(setup.fib_trace);
  sim::TransposedTraceSource conv(setup.conv_trace);

  for (SetEval* e : {&ff, &xrf}) {
    const char* set_name = e == &ff ? "FF" : "FF w/o RF";
    e->fib = pipe.evaluate_stream(e->search.set, fib, setup.fib_trace_fp,
                                  strprintf("%s, fib", set_name));
    e->conv = pipe.evaluate_stream(e->search.set, conv, setup.conv_trace_fp,
                                   strprintf("%s, conv", set_name));
    e->sel_fib = pipe.select_stream(e->search.set, fib, setup.fib_trace_fp,
                                    strprintf("%s, fib", set_name));
    e->sel_conv = pipe.select_stream(e->search.set, conv,
                                     setup.conv_trace_fp,
                                     strprintf("%s, conv", set_name));
  }

  const auto row4 = [&](const std::string& name, auto fn) {
    t.add_row({name, fn(ff, true), fn(xrf, true), fn(ff, false),
               fn(xrf, false)});
  };

  row4("#Effective MATEs", [](const SetEval& e, bool is_fib) {
    return fmt_count(is_fib ? e.fib.effective_mates : e.conv.effective_mates);
  });
  row4("Avg. #inputs", [](const SetEval& e, bool is_fib) {
    const mate::EvalResult& r = is_fib ? e.fib : e.conv;
    return fmt_mean_sd(r.avg_inputs, r.sd_inputs);
  });
  row4("Masked Faults", [](const SetEval& e, bool is_fib) {
    return fmt_percent(is_fib ? e.fib.masked_fraction()
                              : e.conv.masked_fraction());
  });

  for (const bool select_on_fib : {true, false}) {
    t.add_separator();
    pipe.progress("%s: top-N sweep (selected on %s)...", table_name,
                  select_on_fib ? "fib" : "conv");
    for (const std::size_t n : {10u, 50u, 100u, 200u}) {
      const auto cell = [&](const SetEval& e, bool eval_fib) {
        const mate::SelectionResult& sel =
            select_on_fib ? e.sel_fib : e.sel_conv;
        const mate::MateSet sub = mate::top_n(e.search.set, sel, n);
        const mate::EvalResult r = pipe.evaluate_stream(
            sub, eval_fib ? fib : conv,
            eval_fib ? setup.fib_trace_fp : setup.conv_trace_fp,
            strprintf("%s top-%zu sel. %s, %s", &e == &ff ? "FF" : "FF w/o RF",
                      n, select_on_fib ? "fib" : "conv",
                      eval_fib ? "fib" : "conv"));
        return fmt_percent(r.masked_fraction());
      };
      const std::string label = std::string("sel. ") +
                                (select_on_fib ? "fib" : "conv") + " Top " +
                                std::to_string(n);
      t.add_row({label, cell(ff, true), cell(xrf, true), cell(ff, false),
                 cell(xrf, false)});
    }
  }

  h.emit(t);
}

} // namespace ripple::bench
