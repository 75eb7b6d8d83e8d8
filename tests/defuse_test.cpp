#include <gtest/gtest.h>

#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "hafi/avr_dut.hpp"
#include "hafi/defuse.hpp"
#include "hafi/msp430_dut.hpp"
#include "cores/msp430/programs.hpp"
#include "cores/msp430/system.hpp"
#include "util/rng.hpp"

namespace ripple::hafi {
namespace {

using cores::avr::AvrCore;
using cores::avr::AvrSystem;
using cores::avr::Program;

const AvrCore& core() {
  static const AvrCore c = cores::avr::build_avr_core(true);
  return c;
}

sim::TransposedTrace trace_of(const Program& p, std::size_t cycles) {
  AvrSystem sys(core(), p);
  sim::Trace trace(core().netlist);
  sys.run_stream(cycles, trace);
  return sim::TransposedTrace(trace);
}

TEST(DefUse, AccessExtractionMatchesProgram) {
  const Program p = cores::avr::assemble(R"(
    ldi r16, 1          ; EX cycle 1: write r16
    mov r17, r16        ; EX cycle 2: read r16 (IF in cycle 1), write r17
    out 0, r17          ; EX cycle 3: read r17 (IF in cycle 2)
halt:
    rjmp halt
)");
  const sim::TransposedTrace trace = trace_of(p, 12);
  const AvrRegAccesses acc = analyze_avr_accesses(core().netlist, trace);

  // Pipeline: instruction i enters EX at cycle i+1 (cycle 0 is the fill).
  EXPECT_TRUE(acc.writes[1][16]);
  EXPECT_TRUE(acc.reads_capture[1][16]) << "mov r17,r16 captures r16 in cycle 1";
  EXPECT_TRUE(acc.writes[2][17]);
  EXPECT_TRUE(acc.reads_capture[2][17]) << "out reads r17 in its IF cycle";
  EXPECT_FALSE(acc.writes[3][17]);
  // Registers never touched stay silent.
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    EXPECT_FALSE(acc.reads_capture[c][5]);
    EXPECT_FALSE(acc.reads_direct[c][5]);
    EXPECT_FALSE(acc.writes[c][5]);
  }
}

TEST(DefUse, LoadStoreReadXPointerAtExCycle) {
  const Program p = cores::avr::assemble(R"(
    ldi r26, 0x10
    st X, r26
halt:
    rjmp halt
)");
  const sim::TransposedTrace trace = trace_of(p, 8);
  const AvrRegAccesses acc = analyze_avr_accesses(core().netlist, trace);
  // st X, r26 is in EX at cycle 2; the X pointer is read there (EX-cycle
  // combinational read) and also captured as the store operand in cycle 1.
  EXPECT_TRUE(acc.reads_direct[2][26]);
  EXPECT_TRUE(acc.reads_capture[1][26]);
}

TEST(DefUse, OverwrittenRegisterIsBenignUntilTheWrite) {
  const Program p = cores::avr::assemble(R"(
    ldi r20, 1          ; EX at cycle 1
    nop
    nop
    nop
    ldi r20, 2          ; EX at cycle 5: pure overwrite
    out 0, r20
halt:
    rjmp halt
)");
  const sim::TransposedTrace trace = trace_of(p, 16);
  const AvrRegAccesses acc = analyze_avr_accesses(core().netlist, trace);
  const DefUseResult r = defuse_prune(acc);
  // Between the first write and the second (cycles 2..5) a fault in r20
  // dies at the overwrite.
  for (std::size_t c = 2; c <= 5; ++c) {
    EXPECT_TRUE(r.benign[20][c]) << "cycle " << c;
  }
  // After the out (which reads r20) there is no further overwrite: the
  // conservative analysis keeps the fault potentially effective.
  EXPECT_FALSE(r.benign[20][8]);
}

TEST(DefUse, ReadBeforeWriteIsNotBenign) {
  const Program p = cores::avr::assemble(R"(
    ldi r21, 7
    nop
    out 0, r21          ; read at IF (cycle 2)
    ldi r21, 9          ; overwrite afterwards
halt:
    rjmp halt
)");
  const sim::TransposedTrace trace = trace_of(p, 12);
  const DefUseResult r =
      defuse_prune(analyze_avr_accesses(core().netlist, trace));
  // At cycle 2 the next access is the out-read itself -> effective.
  EXPECT_FALSE(r.benign[21][2]);
  // After the read, the next access is the overwrite -> benign.
  EXPECT_TRUE(r.benign[21][3]);
}

TEST(DefUse, FractionsSaneOnWorkloads) {
  const sim::TransposedTrace trace = trace_of(cores::avr::fib_program(), 1500);
  const DefUseResult r =
      defuse_prune(analyze_avr_accesses(core().netlist, trace));
  EXPECT_GT(r.benign_fraction(), 0.01);
  EXPECT_LT(r.benign_fraction(), 0.9);
  EXPECT_EQ(r.fault_space, 32u * 1500u);
}

/// Inject `points` in one 64-lane batch pass of `dut` and expect every one
/// of them benign.
void expect_all_benign(BatchDut& dut, const netlist::Netlist& n,
                       const std::vector<InjectionPoint>& points,
                       std::size_t cycles) {
  ASSERT_GT(points.size(), 3u) << "sampling should hit benign points";
  const std::vector<Outcome> outcomes = dut.run(points, cycles);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(outcomes[i], Outcome::Benign)
        << n.flop(points[i].flop).name << " cycle " << points[i].cycle;
  }
}

// THE validation: every register-file injection the def-use analysis calls
// benign must come out benign when actually executed on the batch engine.
TEST(DefUse, BenignVerdictsConfirmedByInjection) {
  static const Program prog = cores::avr::fib_program();
  constexpr std::size_t kCycles = 350;
  const sim::TransposedTrace trace = trace_of(prog, kCycles);
  const DefUseResult r =
      defuse_prune(analyze_avr_accesses(core().netlist, trace));

  // Gather the benign (reg, cycle) points, sample a bunch, inject for real.
  std::vector<InjectionPoint> points;
  Rng rng(5);
  for (int draw = 0; draw < 400 && points.size() < 12; ++draw) {
    const std::size_t reg = rng.next_below(32);
    const std::size_t cycle = 30 + rng.next_below(kCycles - 60);
    if (!r.benign[reg][cycle]) continue;
    const std::size_t bit = rng.next_below(8);
    const auto flop = core().netlist.find_flop(
        std::string(cores::avr::kRegfilePrefix) + std::to_string(reg) + "[" +
        std::to_string(bit) + "]");
    ASSERT_TRUE(flop.has_value());
    points.push_back(InjectionPoint{*flop, cycle});
  }
  expect_all_benign(*make_avr_batch_factory(core(), prog)(), core().netlist,
                    points, kCycles);
}

// ---------------------------------------------------------------------------
// MSP430 variant
// ---------------------------------------------------------------------------

const cores::msp430::Msp430Core& mcore() {
  static const cores::msp430::Msp430Core c =
      cores::msp430::build_msp430_core(true);
  return c;
}

sim::TransposedTrace msp430_trace_of(const cores::msp430::Image& img,
                                     std::size_t cycles) {
  cores::msp430::Msp430System sys(mcore(), img);
  sim::Trace trace(mcore().netlist);
  sys.run_stream(cycles, trace);
  return sim::TransposedTrace(trace);
}

TEST(DefUseMsp430, MovOverwriteIsBenignUntilWrite) {
  const cores::msp430::Image img = cores::msp430::assemble(R"(
    mov #1, r4          ; write r4
    nop
    mov #2, r4          ; pure overwrite
    mov r4, &0xff00     ; read r4 afterwards
halt:
    jmp halt
)");
  const sim::TransposedTrace trace = msp430_trace_of(img, 40);
  const AvrRegAccesses acc = analyze_msp430_accesses(mcore().netlist, trace);
  const DefUseResult r = defuse_prune(acc);

  // Find the EXEC cycles of the two movs: the first write and the second.
  std::vector<std::size_t> writes;
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    if (acc.writes[c][4]) writes.push_back(c);
  }
  ASSERT_GE(writes.size(), 2u);
  // Between the first and second write the fault dies at the overwrite.
  for (std::size_t c = writes[0] + 1; c <= writes[1]; ++c) {
    EXPECT_TRUE(r.benign[4][c]) << "cycle " << c;
  }
  // At the read (operand latch of the store mov) it is observed.
  std::size_t read_cycle = 0;
  for (std::size_t c = writes[1] + 1; c < trace.num_cycles(); ++c) {
    if (acc.reads_direct[c][4]) {
      read_cycle = c;
      break;
    }
  }
  ASSERT_GT(read_cycle, 0u);
  EXPECT_FALSE(r.benign[4][read_cycle]);
}

TEST(DefUseMsp430, AutoIncrementReadsThePointer) {
  const cores::msp430::Image img = cores::msp430::assemble(R"(
    mov #0x300, r5
    mov @r5+, r6
halt:
    jmp halt
)");
  const sim::TransposedTrace trace = msp430_trace_of(img, 30);
  const AvrRegAccesses acc = analyze_msp430_accesses(mcore().netlist, trace);
  // Some cycle must both read and write r5 (the += 2), and the read must
  // dominate: a pointer fault is never benign at the increment.
  bool found = false;
  const DefUseResult r = defuse_prune(acc);
  for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
    if (acc.writes[c][5] && acc.reads_direct[c][5]) {
      found = true;
      EXPECT_FALSE(r.benign[5][c]);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DefUseMsp430, BenignVerdictsConfirmedByInjection) {
  static const cores::msp430::Image img = cores::msp430::fib_image();
  constexpr std::size_t kCycles = 400;
  const sim::TransposedTrace trace = msp430_trace_of(img, kCycles);
  const DefUseResult r =
      defuse_prune(analyze_msp430_accesses(mcore().netlist, trace));

  std::vector<InjectionPoint> points;
  Rng rng(11);
  for (int draw = 0; draw < 600 && points.size() < 12; ++draw) {
    const std::size_t reg = rng.next_below(16);
    const std::size_t cycle = 30 + rng.next_below(kCycles - 60);
    if (!r.benign[reg][cycle]) continue;
    const std::size_t bit = rng.next_below(16);
    // Architectural register -> register-file flop (r1 -> rf0, rN -> rf(N-2)).
    const std::size_t rf_idx = reg == 1 ? 0 : reg - 2;
    const auto flop = mcore().netlist.find_flop(
        std::string(cores::msp430::kRegfilePrefix) + std::to_string(rf_idx) +
        "[" + std::to_string(bit) + "]");
    ASSERT_TRUE(flop.has_value()) << "r" << reg;
    points.push_back(InjectionPoint{*flop, cycle});
  }
  expect_all_benign(*make_msp430_batch_factory(mcore(), img)(),
                    mcore().netlist, points, kCycles);
}

} // namespace
} // namespace ripple::hafi
