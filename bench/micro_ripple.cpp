// M1: google-benchmark micro-benchmarks for the hot paths of the library —
// gate-level simulation throughput, MATE trace evaluation, cone analysis,
// path enumeration, per-wire and full-flop search, the exact one-cycle
// masking oracle (hafi::masked_masks), the netlist optimizer and the
// Verilog round-trip.
#include <benchmark/benchmark.h>

#include "cores/avr/core.hpp"
#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "cores/msp430/core.hpp"
#include "cores/msp430/programs.hpp"
#include "cores/msp430/system.hpp"
#include "hafi/confine.hpp"
#include "mate/stream.hpp"
#include "mate/search.hpp"
#include "netlist/random.hpp"
#include "netlist/verilog.hpp"
#include "rtl/optimize.hpp"
#include "sim/stream.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace ripple;

const cores::avr::AvrCore& avr_core() {
  static const cores::avr::AvrCore core = cores::avr::build_avr_core(true);
  return core;
}

const cores::msp430::Msp430Core& msp_core() {
  static const cores::msp430::Msp430Core core =
      cores::msp430::build_msp430_core(true);
  return core;
}

void BM_AvrSimCycle(benchmark::State& state) {
  static const cores::avr::Program prog = cores::avr::fib_program();
  cores::avr::AvrSystem sys(avr_core(), prog);
  for (auto _ : state) {
    sys.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() *
                          avr_core().netlist.num_gates()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AvrSimCycle);

void BM_Msp430SimCycle(benchmark::State& state) {
  static const cores::msp430::Image img = cores::msp430::fib_image();
  cores::msp430::Msp430System sys(msp_core(), img);
  for (auto _ : state) {
    sys.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Msp430SimCycle);

void BM_MateTraceEvaluation(benchmark::State& state) {
  static const mate::SearchResult search = [] {
    return mate::find_mates(avr_core().netlist,
                      mate::all_flop_wires(avr_core().netlist), {});
  }();
  static const sim::TransposedTrace trace = [] {
    static const cores::avr::Program prog = cores::avr::fib_program();
    cores::avr::AvrSystem sys(avr_core(), prog);
    sim::Trace trace(avr_core().netlist);
    sys.run_stream(512, trace);
    return sim::TransposedTrace(trace);
  }();
  sim::TransposedTraceSource source(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mate::evaluate_mates_stream(
        search.set, source, /*threads=*/0, /*overlap=*/false));
  }
  state.counters["mate*cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * search.set.mates.size() * 512),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MateTraceEvaluation);

void BM_FaultConeAvr(benchmark::State& state) {
  const auto wires = mate::all_flop_wires(avr_core().netlist);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mate::compute_cone(avr_core().netlist, wires[i % wires.size()]));
    ++i;
  }
}
BENCHMARK(BM_FaultConeAvr);

void BM_PathEnumerationAvr(benchmark::State& state) {
  const auto wires = mate::all_flop_wires(avr_core().netlist);
  std::vector<mate::FaultCone> cones;
  for (WireId w : wires) {
    cones.push_back(mate::compute_cone(avr_core().netlist, w));
  }
  mate::PathEnumParams params;
  params.max_depth = static_cast<unsigned>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mate::enumerate_paths(
        avr_core().netlist, cones[i % cones.size()], params));
    ++i;
  }
}
BENCHMARK(BM_PathEnumerationAvr)->Arg(8)->Arg(12)->Arg(14);

void BM_MateSearchPerWire(benchmark::State& state) {
  const auto wires = mate::flop_wires_excluding_prefix(
      avr_core().netlist, cores::avr::kRegfilePrefix);
  mate::SearchParams params;
  params.threads = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mate::find_mates(
        avr_core().netlist, {wires[i % wires.size()]}, params));
    ++i;
  }
}
BENCHMARK(BM_MateSearchPerWire);

// The whole search of one core's full flop set (argument 0: AVR, 1:
// MSP430) at SearchParams' defaults on one pool thread, in wall time (the
// search runs on the pool, not on the benchmark thread).
void BM_FindMatesFullFlops(benchmark::State& state) {
  const bool avr = state.range(0) == 0;
  const netlist::Netlist& n = avr ? avr_core().netlist : msp_core().netlist;
  const std::vector<WireId> wires = mate::all_flop_wires(n);
  mate::SearchParams params;
  params.threads = 1;
  std::size_t candidates = 0;
  for (auto _ : state) {
    const mate::SearchResult result = mate::find_mates(n, wires, params);
    candidates += result.total_candidates;
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(avr ? "avr" : "msp430");
  state.counters["candidates/s"] = benchmark::Counter(
      static_cast<double>(candidates), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FindMatesFullFlops)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Every flop of the AVR x every cycle of a 1 000-cycle fib golden run, one
// label sweep per flop and 64-cycle block on one thread.
void BM_MaskedMasksAvrFib(benchmark::State& state) {
  constexpr std::size_t kCycles = 1000;
  static const sim::TransposedTrace trace = [] {
    static const cores::avr::Program prog = cores::avr::fib_program();
    cores::avr::AvrSystem sys(avr_core(), prog);
    sim::Trace trace(avr_core().netlist);
    sys.run_stream(kCycles, trace);
    return sim::TransposedTrace(trace);
  }();
  const std::vector<hafi::FlopGroup> flops =
      hafi::single_flops(avr_core().netlist);
  sim::TransposedTraceSource golden(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hafi::masked_masks(avr_core().netlist, golden, flops));
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * flops.size() * kCycles),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaskedMasksAvrFib)->Unit(benchmark::kMillisecond);

void BM_OptimizeRandomNetlist(benchmark::State& state) {
  Rng rng(99);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = static_cast<std::size_t>(state.range(0));
  spec.num_flops = 16;
  const netlist::Netlist n = random_circuit(spec, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtl::optimize(n));
  }
  state.counters["gates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * spec.num_gates),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptimizeRandomNetlist)->Arg(200)->Arg(2000);

void BM_VerilogRoundTrip(benchmark::State& state) {
  const std::string text = netlist::to_verilog(avr_core().netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::parse_verilog(text));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_VerilogRoundTrip);

void BM_VcdWrite(benchmark::State& state) {
  static const sim::Trace trace = [] {
    static const cores::avr::Program prog = cores::avr::fib_program();
    cores::avr::AvrSystem sys(avr_core(), prog);
    sim::Trace trace(avr_core().netlist);
    sys.run_stream(256, trace);
    return trace;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::to_vcd(trace));
  }
}
BENCHMARK(BM_VcdWrite);

} // namespace

BENCHMARK_MAIN();
