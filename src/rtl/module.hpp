// RTL construction DSL.
//
// Module wraps a netlist under construction and offers word-level operators
// (buses, adders, comparators, mux trees, decoders, register files). It plays
// the role of the RTL-to-gates synthesis flow of the paper's setup: the CPU
// cores are described against this API and elaborate directly into
// technology-mapped library cells; rtl::optimize() then cleans the result the
// way an area-optimizing synthesis run would.
//
// Conventions:
//   * A Bus is a little-endian vector of wires (bit 0 = LSB).
//   * All operator methods create fresh internal wires named "n<k>"; ports
//     and state keep their user names ("pc[3]", "sreg_z", ...).
//   * State is created with state()/state1() and closed with next(); take()
//     verifies that every flop got its next-state function.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace ripple::rtl {

using Bus = std::vector<WireId>;

struct AddResult {
  Bus sum;
  WireId carry;    // carry out of the MSB
  WireId overflow; // signed overflow (carry into MSB XOR carry out)
};

class Module {
public:
  explicit Module(std::string name) : netlist_(std::move(name)) {}

  /// Finalize: check that all state is connected, run the integrity check,
  /// and move the netlist out. The Module must not be used afterwards.
  [[nodiscard]] netlist::Netlist take();

  [[nodiscard]] const netlist::Netlist& peek() const { return netlist_; }
  /// Escape hatch for helpers that need named gate outputs (rtl/ports.hpp).
  [[nodiscard]] netlist::Netlist& peek_mutable() { return netlist_; }

  // --- ports ---------------------------------------------------------------

  WireId input(std::string_view name);
  Bus input_bus(std::string_view name, std::size_t width);
  void output(WireId w);
  void output_bus(const Bus& bus);

  // --- constants -----------------------------------------------------------

  WireId zero();
  WireId one();
  WireId constant(bool v) { return v ? one() : zero(); }
  Bus constant_bus(std::size_t width, std::uint64_t value);

  // --- single-bit gates ----------------------------------------------------

  WireId gate(cell::Kind kind, std::span<const WireId> inputs);
  WireId gate(cell::Kind kind, std::initializer_list<WireId> inputs) {
    return gate(kind, std::span<const WireId>(inputs.begin(), inputs.size()));
  }

  WireId not_(WireId a) { return gate(cell::Kind::Inv, {a}); }
  WireId buf(WireId a) { return gate(cell::Kind::Buf, {a}); }
  WireId and2(WireId a, WireId b) { return gate(cell::Kind::And2, {a, b}); }
  WireId or2(WireId a, WireId b) { return gate(cell::Kind::Or2, {a, b}); }
  WireId nand2(WireId a, WireId b) { return gate(cell::Kind::Nand2, {a, b}); }
  WireId nor2(WireId a, WireId b) { return gate(cell::Kind::Nor2, {a, b}); }
  WireId xor2(WireId a, WireId b) { return gate(cell::Kind::Xor2, {a, b}); }
  WireId xnor2(WireId a, WireId b) { return gate(cell::Kind::Xnor2, {a, b}); }

  /// 2:1 mux — returns if0 when s == 0, if1 when s == 1.
  WireId mux(WireId s, WireId if0, WireId if1) {
    return gate(cell::Kind::Mux2, {s, if0, if1});
  }

  /// Balanced AND/OR reduction trees using the 2-4 input library cells.
  WireId and_all(std::span<const WireId> xs);
  WireId and_all(std::initializer_list<WireId> xs) {
    return and_all(std::span<const WireId>(xs.begin(), xs.size()));
  }
  WireId or_all(std::span<const WireId> xs);
  WireId or_all(std::initializer_list<WireId> xs) {
    return or_all(std::span<const WireId>(xs.begin(), xs.size()));
  }

  // --- bus operators ---------------------------------------------------------

  Bus not_bus(const Bus& a);
  Bus and_bus(const Bus& a, const Bus& b);
  Bus or_bus(const Bus& a, const Bus& b);
  Bus xor_bus(const Bus& a, const Bus& b);
  Bus mux_bus(WireId s, const Bus& if0, const Bus& if1);

  /// Add: sum = a + b + cin. Uses a Kogge-Stone parallel-prefix carry tree
  /// with alternating-polarity AOI21/OAI21 levels — one gate level per
  /// prefix stage, the structure a timing-driven synthesis run produces.
  /// Total depth: 3 + ceil(log2(n)) gate levels.
  AddResult add(const Bus& a, const Bus& b, WireId cin);
  AddResult add(const Bus& a, const Bus& b) { return add(a, b, zero()); }

  /// Ripple-carry variant (area-minimal, depth 2n); kept for the adder-
  /// architecture ablation and as a differential reference in tests.
  AddResult add_ripple(const Bus& a, const Bus& b, WireId cin);
  AddResult add_ripple(const Bus& a, const Bus& b) {
    return add_ripple(a, b, zero());
  }

  /// sub == 0: a + b; sub == 1: a - b = a + ~b + 1. The returned carry is the
  /// adder carry-out (for subtraction: 1 = no borrow, AVR/MSP430 "C" must be
  /// derived per architecture).
  AddResult add_sub(const Bus& a, const Bus& b, WireId sub);

  /// a == b (single wire).
  WireId equals(const Bus& a, const Bus& b);
  /// a == constant.
  WireId equals_const(const Bus& a, std::uint64_t value);

  WireId reduce_or(const Bus& a) { return or_all(a); }
  WireId reduce_and(const Bus& a) { return and_all(a); }
  /// 1 iff all bits of a are zero.
  WireId is_zero(const Bus& a) { return not_(or_all(a)); }

  /// Select one of `options` by binary index `sel` (LSB-first); options.size()
  /// need not be a power of two (out-of-range selects return options.back()).
  Bus mux_tree(const Bus& sel, std::span<const Bus> options);
  WireId mux_tree1(const Bus& sel, std::span<const WireId> options);

  /// One-hot decoder: out[i] = (sel == i), for i in [0, count).
  Bus decode(const Bus& sel, std::size_t count);

  /// Shift by a constant amount, filling with `fill` (defaults to 0).
  Bus shift_left_const(const Bus& a, std::size_t amount);
  Bus shift_right_const(const Bus& a, std::size_t amount, WireId fill);
  Bus shift_right_const(const Bus& a, std::size_t amount) {
    return shift_right_const(a, amount, zero());
  }

  /// Slice/concat helpers (pure wiring, no gates).
  static Bus slice(const Bus& a, std::size_t lo, std::size_t width);
  static Bus concat(const Bus& lo, const Bus& hi);
  /// Replicate one wire.
  static Bus splat(WireId w, std::size_t width) { return Bus(width, w); }

  /// Sign/zero extension to `width` (>= a.size()).
  Bus zero_extend(const Bus& a, std::size_t width);
  Bus sign_extend(const Bus& a, std::size_t width);

  // --- state -----------------------------------------------------------------

  /// A register of `width` flops named "<name>[i]"; returns the Q bus.
  Bus state(std::string_view name, std::size_t width, std::uint64_t init = 0);
  WireId state1(std::string_view name, bool init = false);

  /// Connect the next-state function of a state bus created by state().
  void next(const Bus& q, const Bus& d);
  void next(WireId q, WireId d);

  /// Guarded update: state keeps its value unless `en` is 1.
  void next_en(const Bus& q, WireId en, const Bus& d) {
    next(q, mux_bus(en, q, d));
  }
  void next_en(WireId q, WireId en, WireId d) { next(q, mux(en, q, d)); }

private:
  std::string fresh_name() {
    std::string name = "n";
    name += std::to_string(counter_++);
    return name;
  }

  netlist::Netlist netlist_;
  std::size_t counter_ = 0;
  WireId zero_;
  WireId one_;
};

} // namespace ripple::rtl
