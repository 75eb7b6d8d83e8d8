#include "mate/stream.hpp"

#include <algorithm>
#include <array>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace ripple::mate {

/// One MATE as the word-parallel kernel reads it: its literals as (wire
/// index, invert mask) — indices, not pointers, because the backing words
/// change with every chunk — and the faults it masks as a bitset over
/// set.faulty_wires.
struct detail::MatePlan {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> literals;
  BitVec mask;

  /// `cycles` (lanes of block `block` of `slice`) ANDed with every literal:
  /// the cycles in which the MATE triggers.
  [[nodiscard]] std::uint64_t trigger(const sim::TransposedSlice& slice,
                                      std::size_t block,
                                      std::uint64_t cycles) const {
    for (const auto& [wire, invert] : literals) {
      cycles &= slice.wire_words(wire)[block] ^ invert;
      if (cycles == 0) break;
    }
    return cycles;
  }
};

namespace {

/// The plans of every MATE of `set`, in set order: the one plan builder of
/// the accumulators and BenignMaskSink.
std::vector<detail::MatePlan> mate_plans(const MateSet& set) {
  std::unordered_map<WireId, std::size_t> fault_index;
  fault_index.reserve(set.faulty_wires.size());
  for (std::size_t i = 0; i < set.faulty_wires.size(); ++i) {
    fault_index.emplace(set.faulty_wires[i], i);
  }
  std::vector<detail::MatePlan> plans(set.mates.size());
  for (std::size_t m = 0; m < set.mates.size(); ++m) {
    detail::MatePlan& plan = plans[m];
    plan.mask = BitVec(set.faulty_wires.size());
    for (WireId w : set.mates[m].masked_wires) {
      const auto it = fault_index.find(w);
      RIPPLE_ASSERT(it != fault_index.end(),
                    "MATE masks a wire outside the faulty set");
      plan.mask.set(it->second, true);
    }
    plan.literals.reserve(set.mates[m].cube.size());
    for (const Literal& l : set.mates[m].cube.literals()) {
      plan.literals.emplace_back(
          static_cast<std::uint32_t>(l.wire.index()),
          l.value ? 0 : ~std::uint64_t{0});
    }
  }
  return plans;
}

/// Runs `fn(begin, end, partial)` over the 64-cycle blocks [0, blocks),
/// split into one contiguous range per worker. Each worker gets enough
/// blocks to amortize scheduling, so a short chunk runs inline without
/// spinning up a pool. Partials come back in range order; merging them in
/// that order keeps results independent of scheduling.
template <typename Partial, typename Fn>
std::vector<Partial> run_block_ranges(std::size_t threads, std::size_t blocks,
                                      const Fn& fn) {
  constexpr std::size_t kMinBlocksPerWorker = 8;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      std::min({threads == 0 ? hw : threads,
                (blocks + kMinBlocksPerWorker - 1) / kMinBlocksPerWorker,
                blocks});
  std::vector<Partial> partials(std::max<std::size_t>(workers, 1));
  if (workers <= 1) {
    fn(0, blocks, partials[0]);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for_index(
        workers,
        [&](std::size_t chunk) {
          fn(chunk * blocks / workers, (chunk + 1) * blocks / workers,
             partials[chunk]);
        },
        /*grain=*/1);
  }
  return partials;
}

} // namespace

EvalAccumulator::EvalAccumulator(const MateSet& set, std::size_t threads)
    : set_(&set), threads_(threads), plans_(mate_plans(set)),
      triggers_(set.mates.size(), 0) {}

EvalAccumulator::~EvalAccumulator() = default;

void EvalAccumulator::consume(const sim::TransposedSlice& slice,
                              std::size_t base_cycle) {
  RIPPLE_CHECK(base_cycle == cycles_,
               "streamed chunks must arrive in cycle order without gaps");
  RIPPLE_CHECK(cycles_ % 64 == 0,
               "only the final chunk may end off a 64-cycle block");
  RIPPLE_CHECK(slice.num_cycles > 0, "empty trace chunk");

  const std::size_t blocks = slice.num_blocks;

  struct Partial {
    std::vector<std::size_t> triggers;
    std::size_t masked_faults = 0;
  };

  // One 64-cycle block at a time: per MATE, AND the literal words into a
  // trigger word; OR the masks of the MATEs that held into a per-cycle
  // union and popcount it. Partials merge in worker order, so the result is
  // independent of scheduling.
  const auto run_blocks = [&](std::size_t begin, std::size_t end,
                              Partial& out) {
    out.triggers.assign(plans_.size(), 0);
    std::array<BitVec, 64> acc; // per-cycle masked union, reused per block
    for (std::size_t b = begin; b < end; ++b) {
      const std::uint64_t valid = slice.block_mask(b);
      std::uint64_t used = 0; // cycles of this block with >= 1 trigger
      for (std::size_t m = 0; m < plans_.size(); ++m) {
        const detail::MatePlan& plan = plans_[m];
        const std::uint64_t trig = plan.trigger(slice, b, valid);
        if (trig == 0) continue;
        out.triggers[m] +=
            static_cast<std::size_t>(__builtin_popcountll(trig));
        for (std::uint64_t w = trig; w != 0; w &= w - 1) {
          const unsigned c = static_cast<unsigned>(__builtin_ctzll(w));
          if ((used >> c) & 1u) {
            acc[c] |= plan.mask;
          } else {
            acc[c] = plan.mask; // copy-assign reuses capacity
            used |= std::uint64_t{1} << c;
          }
        }
      }
      for (std::uint64_t w = used; w != 0; w &= w - 1) {
        const unsigned c = static_cast<unsigned>(__builtin_ctzll(w));
        out.masked_faults += acc[c].popcount();
      }
    }
  };

  for (const Partial& p : run_block_ranges<Partial>(threads_, blocks,
                                                    run_blocks)) {
    if (p.triggers.empty()) continue;
    masked_faults_ += p.masked_faults;
    for (std::size_t m = 0; m < triggers_.size(); ++m) {
      triggers_[m] += p.triggers[m];
    }
  }
  cycles_ += slice.num_cycles;
}

EvalResult EvalAccumulator::finish() {
  EvalResult result;
  result.num_cycles = cycles_;
  result.num_faulty_wires = set_->faulty_wires.size();
  result.masked_faults = masked_faults_;
  result.per_mate.resize(set_->mates.size());
  for (std::size_t m = 0; m < set_->mates.size(); ++m) {
    result.per_mate[m].triggers = triggers_[m];
    result.per_mate[m].masked_total =
        triggers_[m] * set_->mates[m].masked_wires.size();
  }
  detail::finalize_eval(*set_, result);
  return result;
}

RankAccumulator::RankAccumulator(const MateSet& set, std::size_t threads)
    : volumes_(set, threads) {}

void RankAccumulator::consume_volumes(const sim::TransposedSlice& slice,
                                      std::size_t base_cycle) {
  RIPPLE_CHECK(!gains_begun_, "consume_volumes after begin_gains");
  volumes_.consume(slice, base_cycle);
}

void RankAccumulator::begin_gains() {
  RIPPLE_CHECK(!gains_begun_, "begin_gains called twice");
  gains_begun_ = true;
  eval_ = volumes_.finish();
  rank_of_ = detail::visit_rank(*volumes_.set_, eval_);
  hits_.assign(volumes_.set_->mates.size(), 0);
}

void RankAccumulator::consume_gains(const sim::TransposedSlice& slice,
                                    std::size_t base_cycle) {
  RIPPLE_CHECK(gains_begun_, "consume_gains before begin_gains");
  RIPPLE_CHECK(base_cycle == gain_cycles_,
               "streamed chunks must arrive in cycle order without gaps");
  RIPPLE_CHECK(gain_cycles_ % 64 == 0,
               "only the final chunk may end off a 64-cycle block");

  const std::vector<detail::MatePlan>& plans = volumes_.plans_;
  const std::size_t blocks = slice.num_blocks;

  // Per block: re-derive the trigger words (same AND-tree as pass 1), build
  // the 64 per-cycle trigger lists locally, then credit marginal gains in
  // global visit order. MATE loop outermost keeps each list ascending by
  // MATE index before the rank_of sort, exactly like the scalar oracle
  // (rank_of is a strict total order, so the sorted order — and therefore
  // every credit — is identical).
  const auto run_blocks = [&](std::size_t begin, std::size_t end,
                              std::vector<std::size_t>& hits) {
    hits.assign(plans.size(), 0);
    std::array<std::vector<std::uint32_t>, 64> triggered;
    BitVec masked(volumes_.set_->faulty_wires.size());
    for (std::size_t b = begin; b < end; ++b) {
      const std::uint64_t valid = slice.block_mask(b);
      std::uint64_t used = 0;
      for (std::size_t m = 0; m < plans.size(); ++m) {
        const std::uint64_t trig = plans[m].trigger(slice, b, valid);
        for (std::uint64_t w = trig; w != 0; w &= w - 1) {
          const unsigned c = static_cast<unsigned>(__builtin_ctzll(w));
          triggered[c].push_back(static_cast<std::uint32_t>(m));
          used |= std::uint64_t{1} << c;
        }
      }
      for (std::uint64_t w = used; w != 0; w &= w - 1) {
        const unsigned c = static_cast<unsigned>(__builtin_ctzll(w));
        std::vector<std::uint32_t>& list = triggered[c];
        std::sort(list.begin(), list.end(),
                  [&](std::uint32_t a, std::uint32_t bb) {
                    return rank_of_[a] < rank_of_[bb];
                  });
        masked.clear_all();
        for (std::uint32_t m : list) {
          hits[m] += masked.or_count(plans[m].mask);
        }
        list.clear();
      }
    }
  };

  for (const std::vector<std::size_t>& p :
       run_block_ranges<std::vector<std::size_t>>(volumes_.threads_, blocks,
                                                  run_blocks)) {
    for (std::size_t m = 0; m < p.size(); ++m) hits_[m] += p[m];
  }
  gain_cycles_ += slice.num_cycles;
}

SelectionResult RankAccumulator::finish() {
  RIPPLE_CHECK(gains_begun_, "finish before begin_gains");
  RIPPLE_CHECK(gain_cycles_ == eval_.num_cycles,
               "gain pass covered a different cycle count than volume pass");
  SelectionResult out;
  out.hits = hits_;
  out.ranking = detail::ranking_from_hits(hits_);
  return out;
}

namespace {

/// TraceSink feeding an EvalAccumulator (or one of the RankAccumulator
/// passes, via the function pointer-ish Fn).
template <typename Fn>
class FnSink final : public sim::TraceSink {
public:
  explicit FnSink(Fn fn) : fn_(std::move(fn)) {}
  void on_chunk(sim::TraceChunk chunk) override {
    fn_(chunk.slice, chunk.base_cycle);
  }

private:
  Fn fn_;
};

template <typename Fn>
void stream_through(sim::TraceSource& source, bool overlap, Fn fn) {
  FnSink<Fn> sink(std::move(fn));
  if (overlap) {
    sim::AsyncTraceSink async(sink);
    source.stream(async);
    async.drain();
  } else {
    source.stream(sink);
  }
}

} // namespace

EvalResult evaluate_mates_stream(const MateSet& set, sim::TraceSource& source,
                                 std::size_t threads, bool overlap) {
  EvalAccumulator acc(set, threads);
  stream_through(source, overlap,
                 [&](const sim::TransposedSlice& slice, std::size_t base) {
                   acc.consume(slice, base);
                 });
  RIPPLE_CHECK(acc.cycles_consumed() == source.num_cycles(),
               "trace source delivered a different cycle count than declared");
  return acc.finish();
}

BenignMaskSink::BenignMaskSink(const MateSet& set, std::size_t num_cycles)
    : plans_(mate_plans(set)), cycles_(num_cycles),
      words_(set.faulty_wires.size(),
             std::vector<std::uint64_t>((num_cycles + 63) / 64, 0)) {}

BenignMaskSink::~BenignMaskSink() = default;

void BenignMaskSink::on_chunk(sim::TraceChunk chunk) {
  const sim::TransposedSlice& slice = chunk.slice;
  RIPPLE_CHECK(chunk.base_cycle == consumed_ && consumed_ % 64 == 0 &&
                   consumed_ + slice.num_cycles <= cycles_,
               "trace chunks must cover the declared cycles in order");
  const std::size_t first_word = consumed_ / 64;
  for (std::size_t b = 0; b < slice.num_blocks; ++b) {
    const std::uint64_t valid = slice.block_mask(b);
    for (const detail::MatePlan& plan : plans_) {
      const std::uint64_t trig = plan.trigger(slice, b, valid);
      if (trig == 0) continue;
      const std::vector<std::uint64_t>& mask = plan.mask.words();
      for (std::size_t mw = 0; mw < mask.size(); ++mw) {
        for (std::uint64_t m = mask[mw]; m != 0; m &= m - 1) {
          const std::size_t i =
              mw * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
          words_[i][first_word + b] |= trig;
        }
      }
    }
  }
  consumed_ += slice.num_cycles;
}

std::vector<BitVec> BenignMaskSink::take() {
  RIPPLE_CHECK(consumed_ == cycles_,
               "trace source delivered a different cycle count than declared");
  std::vector<BitVec> masks;
  masks.reserve(words_.size());
  for (std::vector<std::uint64_t>& w : words_) {
    masks.push_back(BitVec::from_words(cycles_, std::move(w)));
  }
  return masks;
}

std::vector<BitVec> benign_masks(const MateSet& set,
                                 sim::TraceSource& source) {
  BenignMaskSink sink(set, source.num_cycles());
  source.stream(sink);
  return sink.take();
}

SelectionResult rank_mates_stream(const MateSet& set, sim::TraceSource& source,
                                  std::size_t threads, bool overlap) {
  RankAccumulator acc(set, threads);
  stream_through(source, overlap,
                 [&](const sim::TransposedSlice& slice, std::size_t base) {
                   acc.consume_volumes(slice, base);
                 });
  acc.begin_gains();
  stream_through(source, overlap,
                 [&](const sim::TransposedSlice& slice, std::size_t base) {
                   acc.consume_gains(slice, base);
                 });
  return acc.finish();
}

} // namespace ripple::mate
