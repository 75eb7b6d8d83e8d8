// The suite's one wall-clock gate (ctest `eval_speed_gate`, run serially):
// on the paper's 8 500-cycle AVR fib trace, with the full flop set's MATEs
// under the default search parameters, streaming evaluate and streaming
// select must each be no slower than the scalar oracle of tests/support.
// The streaming engine wins by a wide margin (15-24x on evaluate and 7-9x
// on select on a 4-vCPU Xeon host), so thread start-up noise cannot flip the
// check; only a real regression can. Byte identity on the same inputs is
// pipeline_test's Pipeline.AvrEvalSelectStagesMatchScalarOracle.
#include <gtest/gtest.h>

#include "mate/stream.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/stream.hpp"
#include "sim/transposed.hpp"
#include "support/oracles.hpp"
#include "support/row_major.hpp"
#include "util/stopwatch.hpp"

namespace ripple::pipeline {
namespace {

/// Wall seconds of two runs of `fn`.
template <typename Fn>
double time_two_runs(Fn&& fn) {
  Stopwatch watch;
  fn();
  fn();
  return watch.seconds();
}

TEST(EvalSpeed, StreamingNoSlowerThanScalarOracle) {
  CampaignPipeline pipe(PipelineConfig{}); // no cache: every stage computes
  const CoreSetup setup = pipe.setup({CoreKind::Avr, kDefaultTraceCycles});
  const mate::MateSet set = pipe.find_mates(setup, setup.ff,
                                            pipe.default_params(),
                                            setup.name + " FF")
                                .set;
  const sim::Trace trace = sim::untranspose(setup.netlist, setup.fib_trace);
  sim::TransposedTraceSource source(setup.fib_trace,
                                    pipe.config().trace_chunk_cycles);

  const double eval_scalar = time_two_runs(
      [&] { (void)mate::evaluate_mates_scalar(set, trace); });
  const double eval_stream = time_two_runs(
      [&] { (void)mate::evaluate_mates_stream(set, source); });
  const double select_scalar =
      time_two_runs([&] { (void)mate::rank_mates_scalar(set, trace); });
  const double select_stream =
      time_two_runs([&] { (void)mate::rank_mates_stream(set, source); });

  EXPECT_LE(eval_stream, eval_scalar)
      << "streaming evaluate slower than the scalar oracle: "
      << eval_scalar / eval_stream << "x";
  EXPECT_LE(select_stream, select_scalar)
      << "streaming select slower than the scalar oracle: "
      << select_scalar / select_stream << "x";
}

} // namespace
} // namespace ripple::pipeline
