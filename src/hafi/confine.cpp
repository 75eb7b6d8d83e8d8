#include "hafi/confine.hpp"

#include <bit>
#include <limits>

#include "obs/trace.hpp"
#include "sim/batch.hpp"
#include "util/strings.hpp"

namespace ripple::hafi {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The wires a label sweep compares against the golden run: every primary
/// output and every D wire, each once. own[g] indexes the one D wire a
/// change on which leaves group g Held rather than Escaped; observed_wires
/// sets it per single flop, to f's D wire when it is no primary output and
/// no other flop latches it, and to kNone (every change escapes) otherwise.
struct Observed {
  std::vector<std::uint32_t> wires;
  std::vector<std::size_t> own; // per group
};

Observed observed_wires(const netlist::Netlist& n) {
  Observed o;
  std::vector<std::size_t> index(n.num_wires(), kNone);
  std::vector<std::size_t> latches(n.num_wires(), 0);
  const auto add = [&](WireId w) {
    if (index[w.index()] != kNone) return;
    index[w.index()] = o.wires.size();
    o.wires.push_back(static_cast<std::uint32_t>(w.index()));
  };
  for (const WireId w : n.primary_outputs()) add(w);
  for (const FlopId f : n.all_flops()) {
    add(n.flop(f).d);
    ++latches[n.flop(f).d.index()];
  }
  o.own.reserve(n.num_flops());
  for (const FlopId f : n.all_flops()) {
    const WireId d = n.flop(f).d;
    o.own.push_back(latches[d.index()] == 1 && !n.wire(d).is_primary_output
                        ? index[d.index()]
                        : kNone);
  }
  return o;
}

/// Labels each streamed chunk, one task per 64-cycle block, into per-group
/// Masked and Held words (group-major, `words` per group): one sweep per
/// group and block, with every flop of the group flipped in every lane.
class LabelSink final : public sim::TraceSink {
public:
  LabelSink(const netlist::Netlist& n, const sim::TraceSource& golden,
            std::vector<FlopGroup> groups, Observed observed,
            const ShardExecutor& execute)
      : n_(&n), kernel_(n), observed_(std::move(observed)),
        groups_(std::move(groups)),
        words_((golden.num_cycles() + 63) / 64),
        cycles_(golden.num_cycles()), execute_(execute),
        masked_(groups_.size() * words_, 0),
        held_(groups_.size() * words_, 0) {
    RIPPLE_CHECK(golden.num_wires() == n.num_wires(), "golden run has ",
                 golden.num_wires(), " wires, the netlist ", n.num_wires());
    RIPPLE_ASSERT(observed_.own.size() == groups_.size());
    for (const FlopGroup& group : groups_) {
      RIPPLE_CHECK(!group.empty(), "empty flop group");
    }
    if (!execute_) {
      execute_ = [](std::size_t count,
                    const std::function<void(std::size_t)>& task) {
        for (std::size_t i = 0; i < count; ++i) task(i);
      };
    }
  }

  void on_chunk(sim::TraceChunk chunk) override {
    const sim::TransposedSlice& slice = chunk.slice;
    RIPPLE_CHECK(chunk.base_cycle == consumed_ && consumed_ % 64 == 0 &&
                     consumed_ + slice.num_cycles <= cycles_,
                 "trace chunks must cover the declared cycles in order");
    const std::size_t first_word = consumed_ / 64;
    execute_(slice.num_blocks, [&](std::size_t b) {
      label_block(slice, b, first_word + b);
    });
    consumed_ += slice.num_cycles;
  }

  /// The Masked labels, one mask per group.
  [[nodiscard]] std::vector<BitVec> masked() const {
    check_complete();
    std::vector<BitVec> masks;
    masks.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const std::uint64_t* words = masked_.data() + g * words_;
      masks.push_back(BitVec::from_words(
          cycles_, std::vector<std::uint64_t>(words, words + words_)));
    }
    return masks;
  }

  /// Fold the labels backward into the confined masks: bit t is set when
  /// t is Masked, or Held and t + 1 is confined; past the last cycle every
  /// chain is confined, since the outcome never reads the final state.
  [[nodiscard]] std::vector<BitVec> confined() const {
    check_complete();
    std::vector<BitVec> masks;
    masks.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const std::uint64_t* masked = masked_.data() + g * words_;
      const std::uint64_t* held = held_.data() + g * words_;
      std::vector<std::uint64_t> confined(words_, 0);
      bool next = true;
      for (std::size_t t = cycles_; t-- > 0;) {
        const std::size_t w = t / 64;
        const std::uint64_t bit = std::uint64_t{1} << (t % 64);
        next = (masked[w] & bit) != 0 || ((held[w] & bit) != 0 && next);
        if (next) confined[w] |= bit;
      }
      masks.push_back(BitVec::from_words(cycles_, std::move(confined)));
    }
    return masks;
  }

private:
  void check_complete() const {
    RIPPLE_CHECK(consumed_ == cycles_,
                 "trace source delivered a different cycle count than "
                 "declared");
  }

  /// Lane j of block `b` is golden cycle 64 * word + j: load the golden
  /// state and inputs, then sweep once per group with it flipped everywhere.
  void label_block(const sim::TransposedSlice& slice, std::size_t b,
                   std::size_t word) {
    obs::Span span("hafi", "confine");
    if (span.active()) span.set_detail(strprintf("block %zu", word));
    sim::BatchSimulator sim = kernel_; // the compiled program, copied
    const netlist::Netlist& n = *n_;
    for (const WireId w : n.primary_inputs()) {
      sim.set_input(w, slice.wire_words(w.index())[b]);
    }
    for (const FlopId f : n.all_flops()) {
      sim.set_flop(f, slice.wire_words(n.flop(f).q.index())[b]);
    }
    const std::vector<std::uint32_t>& wires = observed_.wires;
    std::vector<std::uint64_t> golden(wires.size());
    for (std::size_t i = 0; i < wires.size(); ++i) {
      golden[i] = slice.wire_words(wires[i])[b];
    }
    const std::uint64_t valid = slice.block_mask(b);
    const std::span<const std::uint64_t> values = sim.values();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (const FlopId f : groups_[g]) sim.flip_flop(f, ~sim::LaneMask{0});
      sim.eval();
      const std::size_t mine = observed_.own[g];
      std::uint64_t escaped = 0;
      std::uint64_t own = 0;
      for (std::size_t i = 0; i < wires.size(); ++i) {
        const std::uint64_t diff = values[wires[i]] ^ golden[i];
        if (i == mine) {
          own = diff;
        } else {
          escaped |= diff;
        }
      }
      masked_[g * words_ + word] = valid & ~escaped & ~own;
      held_[g * words_ + word] = valid & ~escaped & own;
      for (const FlopId f : groups_[g]) sim.flip_flop(f, ~sim::LaneMask{0});
    }
  }

  const netlist::Netlist* n_;
  const sim::BatchSimulator kernel_;
  const Observed observed_;
  const std::vector<FlopGroup> groups_;
  const std::size_t words_;
  const std::size_t cycles_;
  ShardExecutor execute_;
  std::size_t consumed_ = 0;
  // Written by concurrent block tasks, each at its own word of every group.
  std::vector<std::uint64_t> masked_;
  std::vector<std::uint64_t> held_;
};

/// Lanes 0 .. count - 1 of a word; every lane from 64 on.
sim::LaneMask first_lanes(std::size_t count) {
  return count >= 64 ? ~sim::LaneMask{0} : (sim::LaneMask{1} << count) - 1;
}

} // namespace

std::vector<FlopGroup> single_flops(const netlist::Netlist& n) {
  std::vector<FlopGroup> groups;
  groups.reserve(n.num_flops());
  for (const FlopId f : n.all_flops()) groups.push_back({f});
  return groups;
}

std::vector<BitVec> confined_masks(const netlist::Netlist& n,
                                   sim::TraceSource& golden,
                                   const ShardExecutor& execute) {
  LabelSink sink(n, golden, single_flops(n), observed_wires(n), execute);
  golden.stream(sink);
  return sink.confined();
}

std::vector<BitVec> masked_masks(const netlist::Netlist& n,
                                 sim::TraceSource& golden,
                                 std::span<const FlopGroup> groups,
                                 const ShardExecutor& execute) {
  // No own wire: every change escapes, so each label is Masked or not.
  Observed observed = observed_wires(n);
  observed.own.assign(groups.size(), kNone);
  LabelSink sink(n, golden, {groups.begin(), groups.end()},
                 std::move(observed), execute);
  golden.stream(sink);
  return sink.masked();
}

std::vector<std::vector<std::uint8_t>> convergence_cycles(
    const netlist::Netlist& n, const sim::TransposedTrace& golden,
    unsigned k) {
  RIPPLE_CHECK(k >= 1 && k <= 63,
               "convergence budget k must lie in [1, 63], got ", k);
  RIPPLE_CHECK(golden.num_wires() == n.num_wires(), "golden run has ",
               golden.num_wires(), " wires, the netlist ", n.num_wires());
  const std::size_t cycles = golden.num_cycles();
  const std::vector<FlopId> flops = n.all_flops();
  const std::vector<WireId> inputs(n.primary_inputs().begin(),
                                   n.primary_inputs().end());
  const std::vector<WireId> outputs(n.primary_outputs().begin(),
                                    n.primary_outputs().end());
  std::vector<WireId> qs;
  qs.reserve(flops.size());
  for (const FlopId f : flops) qs.push_back(n.flop(f).q);
  std::vector<std::vector<std::uint8_t>> result(
      flops.size(), std::vector<std::uint8_t>(cycles, 0));
  sim::BatchSimulator sim(n);
  for (std::size_t b = 0; b < golden.num_blocks(); ++b) {
    const std::size_t base = 64 * b;
    // The golden words of `wires` s = 0 .. k cycles after each lane's
    // cycle, one row per s: lane l of row s reads cycle base + l + s, from
    // words b and b + 1 (s < 64).
    const auto windows = [&](const std::vector<WireId>& wires) {
      std::vector<std::uint64_t> rows;
      rows.reserve((k + 1) * wires.size());
      for (unsigned s = 0; s <= k; ++s) {
        for (const WireId w : wires) {
          const std::span<const std::uint64_t> words =
              golden.wire_stream(w.index());
          const std::uint64_t next = b + 1 < words.size() ? words[b + 1] : 0;
          rows.push_back(s == 0 ? words[b]
                                : (words[b] >> s) | (next << (64 - s)));
        }
      }
      return rows;
    };
    const std::vector<std::uint64_t> in_words = windows(inputs);
    const std::vector<std::uint64_t> out_words = windows(outputs);
    const std::vector<std::uint64_t> q_words = windows(qs);
    // The lanes whose cycle base + l + s lies in the trace.
    const auto in_trace = [&](unsigned s) {
      return base + s >= cycles ? sim::LaneMask{0}
                                : first_lanes(cycles - base - s);
    };
    for (const FlopId f : flops) {
      for (std::size_t i = 0; i < flops.size(); ++i) {
        sim.set_flop(flops[i], q_words[i]);
      }
      sim.flip_flop(f, ~sim::LaneMask{0});
      std::uint8_t* const out = result[f.index()].data() + base;
      sim::LaneMask live = ~sim::LaneMask{0};
      for (unsigned s = 0; s < k; ++s) {
        // A lane whose state of cycle t + s + 1 lies past the trace end
        // can no longer converge.
        live &= in_trace(s + 1);
        if (live == 0) break;
        const std::uint64_t* in = in_words.data() + s * inputs.size();
        for (std::size_t i = 0; i < inputs.size(); ++i) {
          sim.set_input(inputs[i], in[i]);
        }
        sim.eval();
        const std::uint64_t* po = out_words.data() + s * outputs.size();
        for (std::size_t i = 0; i < outputs.size(); ++i) {
          live &= ~(sim.value(outputs[i]) ^ po[i]);
        }
        sim.latch();
        // The state of cycle base + l + s + 1 against the golden one.
        const std::uint64_t* next = q_words.data() + (s + 1) * flops.size();
        sim::LaneMask diverged = 0;
        for (std::size_t i = 0; i < flops.size() && diverged != live; ++i) {
          diverged |= (sim.flop(flops[i]) ^ next[i]) & live;
        }
        const sim::LaneMask converged = live & ~diverged;
        for (sim::LaneMask m = converged; m != 0; m &= m - 1) {
          out[std::countr_zero(m)] = static_cast<std::uint8_t>(s + 1);
        }
        live &= ~converged;
      }
    }
  }
  return result;
}

} // namespace ripple::hafi
