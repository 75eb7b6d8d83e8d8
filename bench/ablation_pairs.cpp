// Ablation A5 (Section 6.2 outlook): MATEs for 2-bit upsets. Samples flop
// pairs — physically adjacent register bits (the MBU-realistic case, cf. the
// FLINT layout argument the paper cites) and random pairs — searches group
// MATEs for each, and measures how much of the pair-fault space they prune
// on the fib trace.
#include "mate/eval.hpp"
#include "pipeline/harness.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace ripple;
using namespace ripple::pipeline;

namespace {

struct PairStats {
  std::size_t pairs = 0;
  std::size_t with_mate = 0;
  std::size_t masked_points = 0; // over pairs x cycles
  std::size_t space = 0;
  double avg_inputs = 0;
  std::size_t mates = 0;
};

PairStats measure(const CoreSetup& setup,
                  const std::vector<std::array<WireId, 2>>& pairs,
                  const mate::SearchParams& params,
                  const std::vector<std::uint32_t>& topo) {
  PairStats stats;
  double input_sum = 0;
  for (const auto& pair : pairs) {
    ++stats.pairs;
    const mate::GroupOutcome out =
        mate::find_group_mates(setup.netlist, pair, params, topo);
    stats.space += setup.fib_trace.num_cycles();
    if (out.status != mate::WireStatus::Found) continue;
    ++stats.with_mate;
    for (const mate::Cube& c : out.mates) {
      input_sum += static_cast<double>(c.size());
      ++stats.mates;
    }
    for (std::size_t cy = 0; cy < setup.fib_trace.num_cycles(); ++cy) {
      const BitVec& row = setup.fib_trace.cycle_values(cy);
      for (const mate::Cube& c : out.mates) {
        if (c.eval(row)) {
          ++stats.masked_points;
          break;
        }
      }
    }
  }
  stats.avg_inputs = stats.mates == 0
                         ? 0.0
                         : input_sum / static_cast<double>(stats.mates);
  return stats;
}

std::vector<std::array<WireId, 2>> adjacent_pairs(const CoreSetup& setup,
                                                  std::size_t limit) {
  // Pairs of neighbouring bits of the same register ("rfX[i]", "rfX[i+1]"
  // or "src_val[i]"/"[i+1]", ...), the geometry an MBU strikes.
  std::vector<std::array<WireId, 2>> pairs;
  for (FlopId f : setup.netlist.all_flops()) {
    const std::string& name = setup.netlist.flop(f).name;
    const auto bracket = name.find('[');
    if (bracket == std::string::npos) continue;
    const int bit = std::atoi(name.c_str() + bracket + 1);
    const std::string next =
        name.substr(0, bracket) + "[" + std::to_string(bit + 1) + "]";
    const auto g = setup.netlist.find_flop(next);
    if (!g) continue;
    pairs.push_back({setup.netlist.flop(f).q, setup.netlist.flop(*g).q});
  }
  // Subsample evenly so the sample spans register file, PC, IR and the
  // stage buffers instead of just the first registers.
  if (pairs.size() > limit) {
    std::vector<std::array<WireId, 2>> picked;
    const double stride =
        static_cast<double>(pairs.size()) / static_cast<double>(limit);
    for (std::size_t i = 0; i < limit; ++i) {
      picked.push_back(pairs[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
    return picked;
  }
  return pairs;
}

std::vector<std::array<WireId, 2>> random_pairs(const CoreSetup& setup,
                                                std::size_t limit,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::array<WireId, 2>> pairs;
  const std::size_t flops = setup.netlist.num_flops();
  while (pairs.size() < limit) {
    const auto a = static_cast<FlopId::value_type>(rng.next_below(flops));
    const auto b = static_cast<FlopId::value_type>(rng.next_below(flops));
    if (a == b) continue;
    pairs.push_back({setup.netlist.flop(FlopId{a}).q,
                     setup.netlist.flop(FlopId{b}).q});
  }
  return pairs;
}

} // namespace

int main(int argc, char** argv) {
  // No --threads: the group search runs on one thread.
  Harness h(argc, argv, "ablation_pairs",
            "Ablation A5: group MATEs for 2-bit upsets",
            kCsv | kDepth | kCycles | kTraceChunkCycles);
  const CoreSetup avr = h.setup(CoreKind::Avr, 2000);
  const CoreSetup msp = h.setup(CoreKind::Msp430, 2000);
  constexpr std::size_t kPairs = 120;

  TablePrinter t({"2-bit fault groups", "pairs", "with MATE",
                  "pair space masked", "avg #inputs"});
  for (const CoreSetup* s : {&avr, &msp}) {
    // Levelize once per core; the pair sweep hands the positions to every
    // find_group_mates call instead of re-levelizing 120 times.
    const std::vector<std::uint32_t> topo = mate::topo_positions(s->netlist);
    for (const bool adjacent : {true, false}) {
      h.pipe().progress("ablation_pairs: %s %s...", s->name.c_str(),
                        adjacent ? "adjacent" : "random");
      const auto pairs = adjacent ? adjacent_pairs(*s, kPairs)
                                  : random_pairs(*s, kPairs, 99);
      const PairStats st = measure(*s, pairs, h.params(), topo);
      t.add_row({s->name + (adjacent ? " adjacent bits" : " random pairs"),
                 fmt_count(st.pairs), fmt_count(st.with_mate),
                 fmt_percent(static_cast<double>(st.masked_points) /
                             static_cast<double>(st.space)),
                 strprintf("%.1f", st.avg_inputs)});
    }
  }
  h.emit(t);
  std::printf("\n(Section 6.2: multi-bit MATEs work 'out of the box' but are "
              "more expensive and mask less — quantified here)\n");
  return 0;
}
