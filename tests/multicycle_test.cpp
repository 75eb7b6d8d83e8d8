// The k-cycle masking engine, hafi::convergence_cycles, against the
// per-point oracle sim::MultiCycleOracle (tests/support/multicycle.hpp):
// hand-built circuits with known convergence, random circuits and both
// cores' workloads, every (flop, cycle) compared bit for bit. Sanitizer
// builds (RIPPLE_SANITIZED) shorten the core runs.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cores/avr/core.hpp"
#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "hafi/confine.hpp"
#include "netlist/random.hpp"
#include "pipeline/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/transposed.hpp"
#include "support/golden_run.hpp"
#include "support/masking.hpp"
#include "support/multicycle.hpp"
#include "support/row_major.hpp"

namespace ripple::sim {
namespace {

using netlist::Kind;
using netlist::Netlist;

#if defined(RIPPLE_SANITIZED)
constexpr std::size_t kCoreCycles = 64;
#else
constexpr std::size_t kCoreCycles = 256;
#endif

Trace random_trace(const Netlist& n, std::uint64_t seed, std::size_t cycles) {
  Simulator sim(n);
  Rng rng(seed);
  return record_trace(sim, cycles, [&](Simulator& s, std::size_t) {
    for (WireId w : n.primary_inputs()) s.set_input(w, rng.next_bool());
  });
}

/// The sweep's value for (f, t) at budget k.
unsigned sweep(const Netlist& n, const Trace& trace, FlopId f, std::size_t t,
               unsigned k) {
  return hafi::convergence_cycles(n, TransposedTrace(trace), k)[f.index()][t];
}

/// Every (flop, cycle) of `trace`: the sweep at `k` equals the oracle.
void expect_sweep_matches_oracle(const Netlist& n, const Trace& trace,
                                 unsigned k) {
  const std::vector<std::vector<std::uint8_t>> swept =
      hafi::convergence_cycles(n, TransposedTrace(trace), k);
  ASSERT_EQ(swept.size(), n.num_flops());
  MultiCycleOracle oracle(n);
  std::size_t converged = 0;
  for (const FlopId f : n.all_flops()) {
    ASSERT_EQ(swept[f.index()].size(), trace.num_cycles());
    for (std::size_t t = 0; t < trace.num_cycles(); ++t) {
      const unsigned j = oracle.masked_within(f, trace, t, k);
      ASSERT_EQ(swept[f.index()][t], j)
          << "flop " << n.flop(f).name << " cycle " << t << " k " << k;
      if (j != 0) ++converged;
    }
  }
  EXPECT_GT(converged, 0u) << "no (flop, cycle) converged: a vacuous check";
}

TEST(MultiCycleOracle, GatedRegisterMasksAtCycleOne) {
  // q loads `in` every cycle and is observed only while en: with en low at
  // the injection cycle, the fault dies immediately (j = 1).
  Netlist n;
  const WireId in = n.add_input("in");
  const WireId en = n.add_input("en");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  n.mark_output(n.add_gate_new(Kind::And2, {n.flop(q).q, en}, "obs"));

  Simulator sim(n);
  sim.set_input(en, false);
  sim.set_input(in, true);
  Trace trace = record_trace(sim, 6, [](Simulator&, std::size_t) {});

  MultiCycleOracle oracle(n);
  EXPECT_EQ(oracle.masked_within(q, trace, 1, 4), 1u);
  EXPECT_EQ(sweep(n, trace, q, 1, 4), 1u);
}

TEST(MultiCycleOracle, ShiftChainConvergesAfterChainLength) {
  // A 3-stage shift register fed by an input and never observed except at
  // the end... observe only stage 3 ANDed with 0 -> fault washes out after
  // it shifts past the last stage.
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId s0 = n.add_flop("s0", false);
  const FlopId s1 = n.add_flop("s1", false);
  const FlopId s2 = n.add_flop("s2", false);
  n.connect_flop(s0, in);
  n.connect_flop(s1, n.flop(s0).q);
  n.connect_flop(s2, n.flop(s1).q);
  const WireId zero = n.add_gate_new(Kind::Tie0, {}, "z");
  n.mark_output(n.add_gate_new(Kind::And2, {n.flop(s2).q, zero}, "obs"));

  Simulator sim(n);
  sim.set_input(in, false);
  Trace trace = record_trace(sim, 10, [](Simulator&, std::size_t) {});

  MultiCycleOracle oracle(n);
  // A fault in s0 must shift through s1 and s2: converged after 3 cycles.
  EXPECT_EQ(oracle.masked_within(s0, trace, 2, 8), 3u);
  EXPECT_EQ(oracle.masked_within(s1, trace, 2, 8), 2u);
  EXPECT_EQ(oracle.masked_within(s2, trace, 2, 8), 1u);
  // With too small a budget the fault is not (yet) provably masked.
  EXPECT_EQ(oracle.masked_within(s0, trace, 2, 2), 0u);
  EXPECT_EQ(sweep(n, trace, s0, 2, 8), 3u);
  EXPECT_EQ(sweep(n, trace, s1, 2, 8), 2u);
  EXPECT_EQ(sweep(n, trace, s2, 2, 8), 1u);
  EXPECT_EQ(sweep(n, trace, s0, 2, 2), 0u);
}

TEST(MultiCycleOracle, ObservedFaultNeverMasks) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  n.mark_output(n.flop(q).q);
  Simulator sim(n);
  sim.set_input(in, false);
  Trace trace = record_trace(sim, 6, [](Simulator&, std::size_t) {});
  MultiCycleOracle oracle(n);
  EXPECT_EQ(oracle.masked_within(q, trace, 1, 4), 0u);
  EXPECT_EQ(sweep(n, trace, q, 1, 4), 0u);
}

TEST(MultiCycleOracle, TraceEndIsConservative) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  const WireId zero = n.add_gate_new(Kind::Tie0, {}, "z");
  n.mark_output(zero);
  Simulator sim(n);
  sim.set_input(in, false);
  Trace trace = record_trace(sim, 3, [](Simulator&, std::size_t) {});
  MultiCycleOracle oracle(n);
  // Injection in the last cycle: no next-state row to compare against.
  EXPECT_EQ(oracle.masked_within(q, trace, 2, 4), 0u);
  EXPECT_EQ(sweep(n, trace, q, 2, 4), 0u);
}

TEST(ConvergenceBudget, RejectsBudgetOutsideOneTo63) {
  Netlist n;
  const WireId in = n.add_input("in");
  const FlopId q = n.add_flop("q", false);
  n.connect_flop(q, in);
  n.mark_output(n.flop(q).q);
  Simulator sim(n);
  const TransposedTrace trace(
      record_trace(sim, 4, [](Simulator&, std::size_t) {}));
  EXPECT_THROW((void)hafi::convergence_cycles(n, trace, 0), Error);
  EXPECT_THROW((void)hafi::convergence_cycles(n, trace, 64), Error);
  EXPECT_EQ(hafi::convergence_cycles(n, trace, 63).size(), 1u);
}

// Property: k = 1 of the multi-cycle oracle agrees with the exact one-cycle
// oracle (hafi::masked_masks) on random circuits, and the sweep at k = 16
// equals the oracle on every (flop, cycle), the trace's last 16 included.
class MultiCycleAgrees : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiCycleAgrees, KEqualsOneMatchesConeOracle) {
  Rng rng(GetParam() + 40);
  netlist::RandomCircuitSpec spec;
  spec.num_gates = 50;
  spec.num_flops = 8;
  const Netlist n = random_circuit(spec, rng);
  // Three blocks, the last partial: the sweep's windows cross words.
  const Trace trace = random_trace(n, GetParam() * 3 + 1, 150);

  const std::vector<BitVec> one =
      hafi::masked_masks_of(n, trace, hafi::single_flops(n));
  MultiCycleOracle multi(n);

  for (std::size_t t = 0; t + 2 < trace.num_cycles(); t += 3) {
    for (FlopId f : n.all_flops()) {
      const bool k1 = multi.masked_within(f, trace, t, 1) == 1;
      EXPECT_EQ(one[f.index()].get(t), k1)
          << "flop " << n.flop(f).name << " cycle " << t;
    }
  }
  expect_sweep_matches_oracle(n, trace, 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiCycleAgrees,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(MultiCycleOracle, MonotoneInKOnAvr) {
  const cores::avr::AvrCore core = cores::avr::build_avr_core(true);
  static const cores::avr::Program prog = cores::avr::fib_program();
  cores::avr::AvrSystem sys(core, prog);
  Trace trace(core.netlist);
  sys.run_stream(200, trace);
  MultiCycleOracle oracle(core.netlist);
  const TransposedTrace words(trace);
  const auto swept4 = hafi::convergence_cycles(core.netlist, words, 4);
  const auto swept1 = hafi::convergence_cycles(core.netlist, words, 1);

  std::size_t masked1 = 0;
  std::size_t masked4 = 0;
  for (std::size_t t = 10; t < 60; t += 5) {
    for (FlopId f : core.netlist.all_flops()) {
      const unsigned j4 = oracle.masked_within(f, trace, t, 4);
      const unsigned j1 = oracle.masked_within(f, trace, t, 1);
      EXPECT_EQ(swept4[f.index()][t], j4);
      EXPECT_EQ(swept1[f.index()][t], j1);
      if (j1 != 0) {
        ++masked1;
        EXPECT_EQ(j4, 1u) << "k=4 must find the same 1-cycle convergence";
      }
      if (j4 != 0) ++masked4;
    }
  }
  EXPECT_GT(masked4, masked1) << "larger budgets must mask at least as much";
}

// Both cores' workloads, as the campaign streams them: the sweep at k = 16
// equals the oracle on every flop and cycle. One instance per (core,
// workload), so ctest spreads the oracle's re-simulation over its workers.
// The names are std::strings so that GetParam() prints their text: a
// const char* pair prints its addresses, which differ from run to run and
// would give the ctest names a different suffix on every discovery.
using CoreWorkload = std::pair<std::string, std::string>;
class ConvergenceCycles : public ::testing::TestWithParam<CoreWorkload> {};

TEST_P(ConvergenceCycles, MatchesOracle) {
  const auto [core, workload] = GetParam();
  const pipeline::CoreRuntime rt =
      pipeline::CoreRegistry::global().make(core, workload);
  const auto golden = pipeline::golden_run(rt, kCoreCycles);
  const Trace trace = untranspose(*rt.netlist, gather_trace(*golden));
  expect_sweep_matches_oracle(*rt.netlist, trace, 16);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ConvergenceCycles,
    ::testing::Values(CoreWorkload{"avr", "fib"}, CoreWorkload{"avr", "conv"},
                      CoreWorkload{"avr", "crc"}, CoreWorkload{"msp430", "fib"},
                      CoreWorkload{"msp430", "conv"},
                      CoreWorkload{"msp430", "crc"}),
    [](const auto& info) { return info.param.first + "_" + info.param.second; });

} // namespace
} // namespace ripple::sim
