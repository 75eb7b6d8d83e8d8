#include <gtest/gtest.h>

#include "rtl/components.hpp"
#include "rtl/module.hpp"
#include "rtl/ports.hpp"
#include "sim/levelize.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ripple::rtl {
namespace {

/// Evaluate a pure-combinational module for one input assignment.
struct Harness {
  explicit Harness(netlist::Netlist n) : nl(std::move(n)), sim(nl) {}
  netlist::Netlist nl;
  sim::Simulator sim;

  std::uint64_t eval(const Bus& in, std::uint64_t v, const Bus& out) {
    sim.drive_bus(in, v);
    sim.eval();
    return sim.read_bus(out);
  }
};

TEST(Rtl, AddProducesSumAndCarry) {
  Module m("add");
  const Bus a = m.input_bus("a", 8);
  const Bus b = m.input_bus("b", 8);
  const AddResult r = m.add(a, b);
  m.output_bus(r.sum);
  m.output(r.carry);
  const WireId carry = r.carry;
  const Bus sum = r.sum;
  Harness h(m.take());
  for (unsigned x : {0u, 1u, 17u, 200u, 255u}) {
    for (unsigned y : {0u, 3u, 99u, 255u}) {
      h.sim.drive_bus(a, x);
      h.sim.drive_bus(b, y);
      h.sim.eval();
      EXPECT_EQ(h.sim.read_bus(sum), (x + y) & 0xff);
      EXPECT_EQ(h.sim.value(carry), ((x + y) >> 8) != 0);
    }
  }
}

TEST(Rtl, AddSubSubtracts) {
  Module m("sub");
  const Bus a = m.input_bus("a", 8);
  const Bus b = m.input_bus("b", 8);
  const WireId sub = m.input("sub");
  const AddResult r = m.add_sub(a, b, sub);
  m.output_bus(r.sum);
  m.output(r.carry);
  const Bus sum = r.sum;
  const WireId carry = r.carry;
  Harness h(m.take());
  h.sim.set_input(sub, true);
  for (unsigned x : {0u, 5u, 130u, 255u}) {
    for (unsigned y : {0u, 5u, 131u}) {
      h.sim.drive_bus(a, x);
      h.sim.drive_bus(b, y);
      h.sim.eval();
      EXPECT_EQ(h.sim.read_bus(sum), (x - y) & 0xff);
      // adder carry out = !borrow
      EXPECT_EQ(h.sim.value(carry), x >= y);
    }
  }
}

TEST(Rtl, AddOverflowFlag) {
  Module m("ovf");
  const Bus a = m.input_bus("a", 8);
  const Bus b = m.input_bus("b", 8);
  const AddResult r = m.add(a, b);
  m.output(r.overflow);
  const WireId ovf = r.overflow;
  Harness h(m.take());
  const auto check = [&](unsigned x, unsigned y) {
    h.sim.drive_bus(a, x);
    h.sim.drive_bus(b, y);
    h.sim.eval();
    const int sx = static_cast<std::int8_t>(x);
    const int sy = static_cast<std::int8_t>(y);
    const int s = sx + sy;
    EXPECT_EQ(h.sim.value(ovf), s < -128 || s > 127) << x << "+" << y;
  };
  check(0x7f, 0x01); // overflow
  check(0x80, 0x80); // overflow (negative)
  check(0x01, 0x01); // fine
  check(0xff, 0x01); // -1 + 1, fine
}

TEST(Rtl, EqualsAndEqualsConst) {
  Module m("eq");
  const Bus a = m.input_bus("a", 6);
  const Bus b = m.input_bus("b", 6);
  const WireId eq = m.equals(a, b);
  const WireId eq42 = m.equals_const(a, 42);
  m.output(eq);
  m.output(eq42);
  Harness h(m.take());
  h.sim.drive_bus(a, 42);
  h.sim.drive_bus(b, 42);
  h.sim.eval();
  EXPECT_TRUE(h.sim.value(eq));
  EXPECT_TRUE(h.sim.value(eq42));
  h.sim.drive_bus(b, 41);
  h.sim.eval();
  EXPECT_FALSE(h.sim.value(eq));
}

TEST(Rtl, MuxTreeSelects) {
  Module m("mt");
  const Bus sel = m.input_bus("sel", 2);
  std::vector<Bus> options;
  for (unsigned i = 0; i < 4; ++i) {
    options.push_back(m.constant_bus(8, 10 + i));
  }
  const Bus out = m.mux_tree(sel, options);
  m.output_bus(out);
  Harness h(m.take());
  for (unsigned i = 0; i < 4; ++i) {
    h.sim.drive_bus(sel, i);
    h.sim.eval();
    EXPECT_EQ(h.sim.read_bus(out), 10 + i);
  }
}

TEST(Rtl, MuxTreeOddCount) {
  Module m("mt3");
  const Bus sel = m.input_bus("sel", 2);
  std::vector<Bus> options = {m.constant_bus(4, 1), m.constant_bus(4, 2),
                              m.constant_bus(4, 3)};
  const Bus out = m.mux_tree(sel, options);
  m.output_bus(out);
  Harness h(m.take());
  h.sim.drive_bus(sel, 2);
  h.sim.eval();
  EXPECT_EQ(h.sim.read_bus(out), 3u);
}

TEST(Rtl, DecodeOneHot) {
  Module m("dec");
  const Bus sel = m.input_bus("sel", 3);
  const Bus out = m.decode(sel, 8);
  m.output_bus(out);
  Harness h(m.take());
  for (unsigned i = 0; i < 8; ++i) {
    h.sim.drive_bus(sel, i);
    h.sim.eval();
    EXPECT_EQ(h.sim.read_bus(out), 1u << i);
  }
}

TEST(Rtl, ShiftHelpers) {
  Module m("sh");
  const Bus a = m.input_bus("a", 8);
  const WireId fill = m.input("fill");
  const Bus l = m.shift_left_const(a, 2);
  const Bus r = m.shift_right_const(a, 1, fill);
  m.output_bus(l);
  m.output_bus(r);
  Harness h(m.take());
  h.sim.drive_bus(a, 0b10110101);
  h.sim.set_input(fill, true);
  h.sim.eval();
  EXPECT_EQ(h.sim.read_bus(l), 0b11010100u);
  EXPECT_EQ(h.sim.read_bus(r), 0b11011010u);
}

TEST(Rtl, SignZeroExtend) {
  Module m("ext");
  const Bus a = m.input_bus("a", 4);
  const Bus z = m.zero_extend(a, 8);
  const Bus s = m.sign_extend(a, 8);
  m.output_bus(z);
  m.output_bus(s);
  Harness h(m.take());
  h.sim.drive_bus(a, 0b1010);
  h.sim.eval();
  EXPECT_EQ(h.sim.read_bus(z), 0b00001010u);
  EXPECT_EQ(h.sim.read_bus(s), 0b11111010u);
}

TEST(Rtl, AndOrAllReductions) {
  Module m("red");
  const Bus a = m.input_bus("a", 9);
  m.output(m.and_all(a));
  m.output(m.or_all(a));
  const WireId all = m.peek().primary_outputs()[0];
  const WireId any = m.peek().primary_outputs()[1];
  Harness h(m.take());
  h.sim.drive_bus(a, 0x1ff);
  h.sim.eval();
  EXPECT_TRUE(h.sim.value(all));
  EXPECT_TRUE(h.sim.value(any));
  h.sim.drive_bus(a, 0x0ff);
  h.sim.eval();
  EXPECT_FALSE(h.sim.value(all));
  EXPECT_TRUE(h.sim.value(any));
  h.sim.drive_bus(a, 0);
  h.sim.eval();
  EXPECT_FALSE(h.sim.value(any));
}

/// Differential property: the Kogge-Stone prefix adder (add) and the
/// ripple-carry reference (add_ripple) agree on sum, carry and overflow for
/// every width and random operands, including the carry-in.
class AdderWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdderWidth, KoggeStoneMatchesRipple) {
  const std::size_t width = GetParam();
  Module m("adders");
  const Bus a = m.input_bus("a", width);
  const Bus b = m.input_bus("b", width);
  const WireId cin = m.input("cin");
  const AddResult ks = m.add(a, b, cin);
  const AddResult rp = m.add_ripple(a, b, cin);
  m.output_bus(ks.sum);
  m.output_bus(rp.sum);
  m.output(ks.carry);
  m.output(rp.carry);
  m.output(ks.overflow);
  m.output(rp.overflow);
  netlist::Netlist n = m.take();
  sim::Simulator sim(n);

  Rng rng(width * 31 + 7);
  const std::uint64_t mask =
      width == 64 ? ~0ull : ((1ull << width) - 1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64() & mask;
    const std::uint64_t y = rng.next_u64() & mask;
    const bool c = rng.next_bool();
    sim.drive_bus(a, x);
    sim.drive_bus(b, y);
    sim.set_input(cin, c);
    sim.eval();
    EXPECT_EQ(sim.read_bus(ks.sum), sim.read_bus(rp.sum))
        << width << "-bit " << x << "+" << y << "+" << c;
    EXPECT_EQ(sim.value(ks.carry), sim.value(rp.carry));
    EXPECT_EQ(sim.value(ks.overflow), sim.value(rp.overflow));
    // And against plain arithmetic.
    EXPECT_EQ(sim.read_bus(ks.sum), (x + y + (c ? 1 : 0)) & mask);
    EXPECT_EQ(sim.value(ks.carry),
              ((x + y + (c ? 1 : 0)) >> width) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidth,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 11, 12, 16, 17,
                                           24, 32));

TEST(Rtl, KoggeStoneDepthIsLogarithmic) {
  Module m("ksdepth");
  const Bus a = m.input_bus("a", 16);
  const Bus b = m.input_bus("b", 16);
  const AddResult r = m.add(a, b);
  m.output_bus(r.sum);
  m.output(r.carry);
  const netlist::Netlist n = m.take();
  const sim::Levelization lv = sim::levelize(n);
  // pg(1) + 4 prefix levels + carry fold + sum = 7 levels.
  EXPECT_LE(lv.depth, 8u);
}

TEST(Rtl, StateAndNextEn) {
  Module m("cnt");
  const WireId en = m.input("en");
  const Bus q = m.state("cnt", 4, 0);
  m.next_en(q, en, m.add(q, m.constant_bus(4, 1)).sum);
  m.output_bus(q);
  netlist::Netlist n = m.take();
  sim::Simulator sim(n);
  sim.set_input(en, false);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.read_bus(q), 0u);
  sim.set_input(en, true);
  sim.step();
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.read_bus(q), 2u);
}

TEST(Rtl, StateInitValue) {
  Module m("init");
  const Bus q = m.state("q", 8, 0xa5);
  m.next(q, q);
  m.output_bus(q);
  netlist::Netlist n = m.take();
  sim::Simulator sim(n);
  sim.eval();
  EXPECT_EQ(sim.read_bus(q), 0xa5u);
}

TEST(Rtl, TakeRejectsUnconnectedState) {
  Module m("bad");
  m.state("q", 2, 0);
  EXPECT_THROW(m.take(), Error);
}

TEST(Rtl, RegfileReadWrite) {
  Module m("rf");
  const Bus waddr = m.input_bus("waddr", 3);
  const Bus raddr = m.input_bus("raddr", 3);
  const WireId wen = m.input("wen");
  const Bus wdata = m.input_bus("wdata", 8);
  RegFile rf = make_regfile(m, "r", 8, 8);
  const Bus rdata = regfile_read(m, rf, raddr);
  regfile_write(m, rf, waddr, wen, wdata);
  m.output_bus(rdata);
  netlist::Netlist n = m.take();
  sim::Simulator sim(n);

  // Write 3 -> r5, then read it back.
  sim.drive_bus(waddr, 5);
  sim.drive_bus(wdata, 0x33);
  sim.set_input(wen, true);
  sim.step();
  sim.set_input(wen, false);
  sim.drive_bus(raddr, 5);
  sim.eval();
  EXPECT_EQ(sim.read_bus(rdata), 0x33u);
  sim.drive_bus(raddr, 4);
  sim.eval();
  EXPECT_EQ(sim.read_bus(rdata), 0u) << "other registers untouched";
}

TEST(Rtl, NamedOutputsResolvable) {
  Module m("ports");
  const Bus a = m.input_bus("a", 4);
  name_output_bus(m, a, "echo");
  name_output(m, a[0], "bit0");
  netlist::Netlist n = m.take();
  EXPECT_NO_THROW(find_bus(n, "echo", 4));
  EXPECT_NO_THROW((void)find_wire_checked(n, "bit0"));
  EXPECT_THROW(find_bus(n, "echo", 5), Error);
  EXPECT_THROW((void)find_wire_checked(n, "nope"), Error);
}

} // namespace
} // namespace ripple::rtl
