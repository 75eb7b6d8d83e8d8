#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

namespace ripple::sim {

Simulator::Simulator(const netlist::Netlist& n) : kernel_(n) {}

const BitVec& Simulator::values() const {
  const std::span<const std::uint64_t> words = kernel_.values();
  std::vector<std::uint64_t> packed((words.size() + 63) / 64);
  for (std::size_t b = 0; b < packed.size(); ++b) {
    // One register accumulates a block's 64 lane-0 bits.
    const std::size_t base = b * 64;
    const std::size_t n = std::min<std::size_t>(64, words.size() - base);
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < n; ++k) word |= (words[base + k] & 1u) << k;
    packed[b] = word;
  }
  values_ = BitVec::from_words(words.size(), std::move(packed));
  return values_;
}

BitVec Simulator::flop_state() const {
  const std::size_t n = netlist().num_flops();
  BitVec s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.set(i, kernel_.flop(FlopId(static_cast<std::uint32_t>(i))) & 1u);
  }
  return s;
}

void Simulator::set_flop_state(const BitVec& state) {
  RIPPLE_ASSERT(state.size() == netlist().num_flops());
  for (std::size_t i = 0; i < state.size(); ++i) {
    kernel_.set_flop(FlopId(static_cast<std::uint32_t>(i)),
                     broadcast(state.get(i)));
  }
}

} // namespace ripple::sim
