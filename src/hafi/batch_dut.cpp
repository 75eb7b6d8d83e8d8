#include "hafi/batch_dut.hpp"

#include <limits>

namespace ripple::hafi {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

} // namespace

std::vector<WireId> GoldenSnapshots::wires(const netlist::Netlist& n) {
  std::vector<WireId> wires;
  std::vector<bool> held(n.num_wires(), false);
  const auto add = [&](WireId w) {
    if (held[w.index()]) return;
    held[w.index()] = true;
    wires.push_back(w);
  };
  for (const FlopId f : n.all_flops()) add(n.flop(f).q);
  for (const WireId w : n.primary_outputs()) add(w);
  return wires;
}

GoldenSnapshots::GoldenSnapshots(const netlist::Netlist& n,
                                 sim::TransposedTrace captured)
    : captured_(std::move(captured)), column_(n.num_wires(), kNone) {
  const std::vector<WireId> held = wires(n);
  RIPPLE_CHECK(captured_.num_wires() == held.size(), "golden snapshots need ",
               held.size(), " captured wires, got ", captured_.num_wires());
  for (std::size_t i = 0; i < held.size(); ++i) {
    column_[held[i].index()] = static_cast<std::uint32_t>(i);
  }
  q_column_.reserve(n.num_flops());
  for (const FlopId f : n.all_flops()) {
    q_column_.push_back(column_[n.flop(f).q.index()]);
  }
}

std::vector<std::uint64_t> GoldenSnapshots::flop_words(
    std::uint64_t cycle) const {
  RIPPLE_CHECK(cycle < num_cycles(), "no golden snapshot of cycle ", cycle,
               " in a ", num_cycles(), "-cycle run");
  std::vector<std::uint64_t> words;
  words.reserve(q_column_.size());
  for (const std::uint32_t column : q_column_) {
    words.push_back(bit(column, cycle) ? ~std::uint64_t{0} : 0);
  }
  return words;
}

std::uint64_t GoldenSnapshots::bus(const sim::Bus& bus,
                                   std::uint64_t cycle) const {
  RIPPLE_ASSERT(bus.size() <= 64 && cycle < num_cycles());
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const std::uint32_t column = column_[bus[i].index()];
    RIPPLE_CHECK(column != kNone, "golden snapshots hold no wire ",
                 bus[i].index(), ": it is no primary output");
    v |= static_cast<std::uint64_t>(bit(column, cycle)) << i;
  }
  return v;
}

} // namespace ripple::hafi
