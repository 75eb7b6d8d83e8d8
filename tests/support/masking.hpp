// hafi::masked_masks over a whole in-memory trace, replayed in 64-cycle
// chunks so that every block boundary is also a chunk boundary. The tests
// compare it with sim::reference_masked_masks (support/reference_sim.hpp)
// and check MATE soundness against it.
#pragma once

#include <span>
#include <vector>

#include "hafi/confine.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"

namespace ripple::hafi {

[[nodiscard]] inline std::vector<BitVec> masked_masks_of(
    const netlist::Netlist& n, const sim::Trace& trace,
    std::span<const FlopGroup> groups) {
  const sim::TransposedTrace words(trace);
  sim::TransposedTraceSource source(words, 64);
  return masked_masks(n, source, groups);
}

} // namespace ripple::hafi
