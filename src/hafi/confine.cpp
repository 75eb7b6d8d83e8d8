#include "hafi/confine.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "sim/batch.hpp"
#include "util/strings.hpp"

namespace ripple::hafi {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The wires a label sweep compares against the golden run: every primary
/// output and every D wire, each once. own[f] indexes f's D wire when it is
/// no primary output and no other flop latches it; otherwise a change on it
/// escapes anyway and own[f] is kNone.
struct Observed {
  std::vector<std::uint32_t> wires;
  std::vector<std::size_t> own; // per flop
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

/// Labels each streamed chunk, one task per 64-cycle block, into per-flop
/// Masked and Held words (flop-major, `words` per flop).
class LabelSink final : public sim::TraceSink {
public:
  LabelSink(const netlist::Netlist& n, std::size_t cycles,
            const ShardExecutor& execute)
      : n_(&n), kernel_(n), observed_(observed_wires(n)),
        words_((cycles + 63) / 64), cycles_(cycles), execute_(&execute),
        masked_(n.num_flops() * words_, 0), held_(n.num_flops() * words_, 0) {}

  void on_chunk(sim::TraceChunk chunk) override {
    const sim::TransposedSlice& slice = chunk.slice;
    RIPPLE_CHECK(chunk.base_cycle == consumed_ && consumed_ % 64 == 0 &&
                     consumed_ + slice.num_cycles <= cycles_,
                 "trace chunks must cover the declared cycles in order");
    const std::size_t first_word = consumed_ / 64;
    (*execute_)(slice.num_blocks, [&](std::size_t b) {
      label_block(slice, b, first_word + b);
    });
    consumed_ += slice.num_cycles;
  }

  /// Fold the labels backward into the confined masks: bit t is set when
  /// t is Masked, or Held and t + 1 is confined; past the last cycle every
  /// chain is confined, since the outcome never reads the final state.
  [[nodiscard]] std::vector<BitVec> finish() const {
    RIPPLE_CHECK(consumed_ == cycles_,
                 "trace source delivered a different cycle count than "
                 "declared");
    std::vector<BitVec> masks;
    masks.reserve(n_->num_flops());
    for (std::size_t f = 0; f < n_->num_flops(); ++f) {
      const std::uint64_t* masked = masked_.data() + f * words_;
      const std::uint64_t* held = held_.data() + f * words_;
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
  /// Lane j of block `b` is golden cycle 64 * word + j: load the golden
  /// state and inputs, then sweep once per flop with it flipped everywhere.
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
    for (const FlopId f : n.all_flops()) {
      sim.flip_flop(f, ~sim::LaneMask{0});
      sim.eval();
      const std::size_t mine = observed_.own[f.index()];
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
      masked_[f.index() * words_ + word] = valid & ~escaped & ~own;
      held_[f.index() * words_ + word] = valid & ~escaped & own;
      sim.flip_flop(f, ~sim::LaneMask{0});
    }
  }

  const netlist::Netlist* n_;
  const sim::BatchSimulator kernel_;
  const Observed observed_;
  const std::size_t words_;
  const std::size_t cycles_;
  const ShardExecutor* execute_;
  std::size_t consumed_ = 0;
  // Written by concurrent block tasks, each at its own word of every flop.
  std::vector<std::uint64_t> masked_;
  std::vector<std::uint64_t> held_;
};

} // namespace

std::vector<BitVec> confined_masks(const netlist::Netlist& n,
                                   sim::TraceSource& golden,
                                   const ShardExecutor& execute) {
  RIPPLE_CHECK(golden.num_wires() == n.num_wires(), "golden run has ",
               golden.num_wires(), " wires, the netlist ", n.num_wires());
  const ShardExecutor inline_executor =
      [](std::size_t count, const std::function<void(std::size_t)>& task) {
        for (std::size_t i = 0; i < count; ++i) task(i);
      };
  LabelSink sink(n, golden.num_cycles(), execute ? execute : inline_executor);
  golden.stream(sink);
  return sink.finish();
}

} // namespace ripple::hafi
