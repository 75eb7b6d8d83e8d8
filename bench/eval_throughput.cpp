// Microbenchmark: streaming MATE evaluation vs the scalar oracle.
//
// Finds the core's FF MATE set, then times evaluate and rank with the
// streaming accumulators and with the scalar oracle (tests/support) against
// the fib trace, and reports wall time per run, the streaming speedup over
// scalar and the replayed cycles/sec. The transpose cost is reported as its
// own row (it is paid once per trace and amortized across every
// evaluate/select of a campaign). The streaming engine additionally reports
// its overlap efficiency — the fraction of the streaming wall time the
// consumer worker spent scoring chunks while the producer side delivered
// the next one.
//
// Doubles as the engine's end-to-end cross-check: results are compared with
// the oracle's and any mismatch fails the run. With --check the binary also
// exits non-zero if streaming is slower than scalar — the eval_bench_smoke
// ctest target runs `--check` on the full 8500-cycle AVR trace, where the
// margin is wide (on 4 cores: 20-38x on evaluate, 5-15x on select).
#include "bench/common.hpp"

#include <cstdio>

#include "mate/eval.hpp"
#include "mate/select.hpp"
#include "mate/stream.hpp"
#include "sim/stream.hpp"
#include "sim/transposed.hpp"
#include "support/oracles.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace {

using namespace ripple;
using namespace ripple::bench;

struct Timing {
  double scalar_s = 0.0;
  double stream_s = 0.0;

  [[nodiscard]] double stream_speedup() const {
    return scalar_s / std::max(stream_s, 1e-9);
  }
};

/// Time `fn` over `reps` repetitions; returns total seconds.
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  Stopwatch watch;
  for (std::size_t i = 0; i < reps; ++i) fn();
  return watch.seconds();
}

std::string fmt_rate(double per_sec) {
  if (per_sec >= 1e9) return strprintf("%.2f G/s", per_sec / 1e9);
  if (per_sec >= 1e6) return strprintf("%.2f M/s", per_sec / 1e6);
  if (per_sec >= 1e3) return strprintf("%.2f k/s", per_sec / 1e3);
  return strprintf("%.0f /s", per_sec);
}

/// Adapter so the overlap-instrumented run can sit behind an AsyncTraceSink.
struct AccumulatorSink final : sim::TraceSink {
  mate::EvalAccumulator* acc = nullptr;
  void on_chunk(sim::TraceChunk chunk) override {
    acc->consume(chunk.slice, chunk.base_cycle);
  }
};

} // namespace

int main(int argc, char** argv) {
  std::string core = "avr";
  std::size_t reps = 5;
  bool check = false;
  Harness h(argc, argv, "eval_throughput",
            "streaming MATE evaluation throughput vs the scalar oracle",
            [&](OptionParser& parser) {
              parser.add_value("core", "core to benchmark: avr or msp430",
                               &core);
              parser.add_value("reps", "repetitions per engine", &reps);
              parser.add_flag(
                  "check",
                  "exit non-zero if streaming is slower than scalar", &check);
            });
  if (core != "avr" && core != "msp430") {
    std::fprintf(stderr, "eval_throughput: unknown --core '%s'\n",
                 core.c_str());
    return 2;
  }
  if (reps == 0) reps = 1;

  pipeline::CampaignPipeline& pipe = h.pipe();
  const CoreSetup setup =
      h.setup(core == "avr" ? CoreKind::Avr : CoreKind::Msp430);
  const mate::SearchResult search =
      pipe.find_mates(setup, setup.ff, h.params(), setup.name + " FF");
  const mate::MateSet& set = search.set;
  const sim::Trace& trace = setup.fib_trace;
  const std::size_t threads = h.options().threads;
  const std::size_t chunk_cycles = pipe.config().trace_chunk_cycles;

  h.progress("eval_throughput: %zu mates, %zu cycles, %zu reps/engine...",
             set.mates.size(), trace.num_cycles(), reps);

  Stopwatch transpose_watch;
  const sim::TransposedTrace tt(trace);
  const double transpose_s = transpose_watch.seconds();
  sim::TransposedTraceSource source(tt, chunk_cycles);

  // Results double as the equivalence cross-check against the oracle.
  const mate::EvalResult eval_scalar = mate::evaluate_mates_scalar(set, trace);
  const mate::EvalResult eval_stream =
      mate::evaluate_mates_stream(set, source, threads);
  const mate::SelectionResult sel_scalar = mate::rank_mates_scalar(set, trace);
  const mate::SelectionResult sel_stream =
      mate::rank_mates_stream(set, source, threads);
  if (!(eval_scalar == eval_stream) || !(sel_scalar == sel_stream)) {
    std::fprintf(stderr,
                 "eval_throughput: ENGINE MISMATCH — streaming results "
                 "differ from the scalar oracle\n");
    return 1;
  }

  Timing eval_t;
  eval_t.scalar_s = time_reps(reps, [&] {
    (void)mate::evaluate_mates_scalar(set, trace);
  });
  eval_t.stream_s = time_reps(reps, [&] {
    (void)mate::evaluate_mates_stream(set, source, threads);
  });

  Timing select_t;
  select_t.scalar_s = time_reps(reps, [&] {
    (void)mate::rank_mates_scalar(set, trace);
  });
  select_t.stream_s = time_reps(reps, [&] {
    (void)mate::rank_mates_stream(set, source, threads);
  });

  // Overlap efficiency: one instrumented streaming pass, consumer on the
  // async worker, producer delivering chunks. busy/wall = the fraction of
  // the streaming wall time spent scoring concurrently with production.
  double overlap_busy = 0.0;
  double overlap_wall = 0.0;
  {
    mate::EvalAccumulator acc(set, threads);
    AccumulatorSink consumer;
    consumer.acc = &acc;
    Stopwatch watch;
    {
      sim::AsyncTraceSink async(consumer);
      source.stream(async);
      async.drain();
      overlap_busy = async.busy_seconds();
    }
    overlap_wall = watch.seconds();
    if (!(acc.finish() == eval_scalar)) {
      std::fprintf(stderr,
                   "eval_throughput: ENGINE MISMATCH — overlapped streaming "
                   "pass differs from the scalar oracle\n");
      return 1;
    }
  }
  const double overlap_eff = overlap_busy / std::max(overlap_wall, 1e-9);

  const double total_reps = static_cast<double>(reps);
  const double cycles = static_cast<double>(trace.num_cycles());

  TablePrinter t({"eval_throughput " + setup.name, "scalar", "stream",
                  "stream x", "stream cycles/s"});
  const auto add = [&](const char* stage, const Timing& timing) {
    const double stream_per_run = timing.stream_s / total_reps;
    t.add_row({stage, strprintf("%.4f s", timing.scalar_s / total_reps),
               strprintf("%.4f s", stream_per_run),
               strprintf("%.1fx", timing.stream_speedup()),
               fmt_rate(cycles / std::max(stream_per_run, 1e-9))});
  };
  add("evaluate", eval_t);
  add("select", select_t);
  t.add_row({"transpose (once/trace)", "-", strprintf("%.4f s", transpose_s),
             "-", fmt_rate(cycles / std::max(transpose_s, 1e-9))});
  h.emit(t);

  h.progress("stream overlap: %zu-cycle chunks, consumer busy %.3f s of "
             "%.3f s wall (%.0f %% overlap efficiency)",
             chunk_cycles, overlap_busy, overlap_wall, 100.0 * overlap_eff);

  if (check && (eval_t.stream_speedup() < 1.0 ||
                select_t.stream_speedup() < 1.0)) {
    std::fprintf(stderr,
                 "eval_throughput: --check FAILED — streaming slower than "
                 "scalar (evaluate %.2fx, select %.2fx)\n",
                 eval_t.stream_speedup(), select_t.stream_speedup());
    return 1;
  }
  return 0;
}
