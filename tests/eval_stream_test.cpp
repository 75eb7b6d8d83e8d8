// Equivalence of the streaming (chunked, word-parallel) MATE evaluation
// engine with the scalar oracle of tests/support: evaluate_mates_stream /
// rank_mates_stream and the in-memory evaluate_mates / rank_mates must be
// byte-for-byte identical (EvalResult / SelectionResult operator==) to the
// oracle across chunk sizes that do and do not divide the trace length,
// cycle counts straddling block and chunk edges, overlap on/off, any thread
// count, recorder-driven re-simulating sources, manual accumulator feeding,
// constant-true and empty MATE sets, and searched MATEs on Figure 1 and on
// random circuits. mate::benign_masks — the campaign's pruning decisions —
// must equal the scalar benign_matrix oracle bit for bit, on random
// circuits and on both cores. Also covers the chunk producer machinery:
// ChunkedTraceRecorder output vs the whole-trace transpose, the
// UntransposingSink round trip back to rows, trace_memory accounting, and
// consumer-error propagation through AsyncTraceSink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mate/eval.hpp"
#include "mate/example.hpp"
#include "mate/search.hpp"
#include "mate/select.hpp"
#include "mate/stream.hpp"
#include "netlist/random.hpp"
#include "pipeline/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/transposed.hpp"
#include "support/oracles.hpp"
#include "support/row_major.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ripple::mate {
namespace {

using netlist::Netlist;

/// Randomly driven trace of `cycles` cycles.
sim::Trace random_trace(const Netlist& n, std::size_t cycles, Rng& rng) {
  sim::Simulator sim(n);
  const std::span<const WireId> ins = n.primary_inputs();
  return sim::record_trace(sim, cycles, [&](sim::Simulator& s, std::size_t) {
    for (const WireId w : ins) s.set_input(w, rng.next_bool());
  });
}

/// A synthetic MATE set over random wires of `n`: cubes of 0..4 literals
/// (0 = the constant-true cube), masked wires drawn from a small faulty-wire
/// universe. Exercises shapes the search never emits (empty cubes, repeated
/// wires across MATEs) on purpose.
MateSet random_mate_set(const Netlist& n, std::size_t num_mates, Rng& rng) {
  MateSet set;
  const std::size_t universe = std::min<std::size_t>(8, n.num_wires());
  for (std::size_t i = 0; i < universe; ++i) {
    set.faulty_wires.push_back(
        WireId{static_cast<std::uint32_t>(rng.next_below(n.num_wires()))});
  }
  for (std::size_t m = 0; m < num_mates; ++m) {
    Mate mate;
    std::vector<Literal> lits;
    const std::size_t num_lits = rng.next_below(5); // 0..4
    for (std::size_t l = 0; l < num_lits; ++l) {
      const WireId wire{
          static_cast<std::uint32_t>(rng.next_below(n.num_wires()))};
      // One polarity per wire: Cube rejects contradictory literals.
      const bool dup = std::any_of(
          lits.begin(), lits.end(),
          [&](const Literal& lit) { return lit.wire == wire; });
      if (!dup) lits.push_back({wire, rng.next_bool()});
    }
    mate.cube = Cube(std::move(lits));
    const std::size_t num_masked = 1 + rng.next_below(3);
    for (std::size_t w = 0; w < num_masked; ++w) {
      mate.masked_wires.push_back(
          set.faulty_wires[rng.next_below(set.faulty_wires.size())]);
    }
    set.mates.push_back(std::move(mate));
  }
  return set;
}

/// Replayable source that re-simulates the netlist with a fixed input seed on
/// every stream() pass — the test stand-in for the pipeline's cached
/// re-simulating ChunkedTraceStream. Deterministic, so both rank passes see
/// identical chunks.
class ResimSource final : public sim::TraceSource {
public:
  ResimSource(const Netlist& n, std::size_t cycles, std::size_t chunk_cycles,
              std::uint64_t seed)
      : netlist_(&n), cycles_(cycles), chunk_cycles_(chunk_cycles),
        seed_(seed) {}

  [[nodiscard]] std::size_t num_wires() const override {
    return netlist_->num_wires();
  }
  [[nodiscard]] std::size_t num_cycles() const override { return cycles_; }
  [[nodiscard]] std::size_t chunk_cycles() const override {
    return chunk_cycles_;
  }

  void stream(sim::TraceSink& sink) override {
    Rng rng(seed_);
    sim::Simulator sim(*netlist_);
    const std::span<const WireId> ins = netlist_->primary_inputs();
    sim::record_trace_chunked(sim, cycles_, chunk_cycles_, sink,
                              [&](sim::Simulator& s, std::size_t) {
                                for (const WireId w : ins) {
                                  s.set_input(w, rng.next_bool());
                                }
                              });
  }

private:
  const Netlist* netlist_;
  std::size_t cycles_;
  std::size_t chunk_cycles_;
  std::uint64_t seed_;
};

/// Collects chunks (keeping owned storage alive) for offline inspection.
struct CollectSink final : sim::TraceSink {
  std::vector<sim::TraceChunk> chunks;
  void on_chunk(sim::TraceChunk chunk) override {
    chunks.push_back(std::move(chunk));
  }
};

/// Stream == scalar oracle for every chunk size / overlap / thread combo.
/// Chunk sizes include ones that do not divide the trace length (the final
/// chunk is then a partial, possibly non-multiple-of-64 tail).
void expect_stream_matches(const MateSet& set, const sim::Trace& trace) {
  const sim::TransposedTrace tt(trace);
  const EvalResult scalar = evaluate_mates_scalar(set, trace);
  const SelectionResult scalar_sel = rank_mates_scalar(set, trace);

  for (const std::size_t chunk : {64u, 128u, 192u, 4096u}) {
    sim::TransposedTraceSource source(tt, chunk);
    for (const bool overlap : {false, true}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_EQ(scalar,
                  evaluate_mates_stream(set, source, threads, overlap))
            << "chunk=" << chunk << " overlap=" << overlap
            << " threads=" << threads << " cycles=" << trace.num_cycles();
        EXPECT_EQ(scalar_sel,
                  rank_mates_stream(set, source, threads, overlap))
            << "chunk=" << chunk << " overlap=" << overlap
            << " threads=" << threads << " cycles=" << trace.num_cycles();
      }
    }
  }
}

TEST(StreamChunks, RecorderMatchesWholeTraceTranspose) {
  Rng rng(21);
  const Netlist n = netlist::random_circuit({.num_inputs = 3, .num_flops = 5,
                                    .num_gates = 30},
                                   rng);
  // Trace lengths around chunk and block edges: full chunks only, partial
  // tail chunk, partial tail block inside the tail chunk.
  for (const std::size_t cycles : {64u, 128u, 150u, 257u, 300u}) {
    const std::size_t chunk_cycles = 128;
    const std::uint64_t seed = 1000 + cycles;

    // Whole-trace reference driven by the identical input sequence.
    Rng drive(seed);
    const sim::Trace trace = random_trace(n, cycles, drive);
    const sim::TransposedTrace tt(trace);

    ResimSource source(n, cycles, chunk_cycles, seed);
    CollectSink collect;
    source.stream(collect);

    const std::size_t expect_chunks =
        (cycles + chunk_cycles - 1) / chunk_cycles;
    ASSERT_EQ(collect.chunks.size(), expect_chunks) << "cycles=" << cycles;
    for (std::size_t ci = 0; ci < collect.chunks.size(); ++ci) {
      const sim::TraceChunk& c = collect.chunks[ci];
      EXPECT_EQ(c.index, ci);
      EXPECT_EQ(c.base_cycle, ci * chunk_cycles);
      ASSERT_NE(c.owned, nullptr);
      const std::size_t len =
          std::min(chunk_cycles, cycles - c.base_cycle);
      ASSERT_EQ(c.slice.num_cycles, len);
      ASSERT_EQ(c.slice.num_wires, n.num_wires());
      const sim::TransposedSlice ref =
          sim::cycle_slice(tt, c.base_cycle / 64, len);
      ASSERT_EQ(c.slice.num_blocks, ref.num_blocks);
      for (std::size_t w = 0; w < n.num_wires(); ++w) {
        const std::uint64_t* got = c.slice.wire_words(w);
        const std::uint64_t* want = ref.wire_words(w);
        for (std::size_t b = 0; b < ref.num_blocks; ++b) {
          ASSERT_EQ(got[b], want[b]) << "cycles=" << cycles << " chunk=" << ci
                                     << " wire=" << w << " block=" << b;
          ASSERT_EQ(c.slice.block_mask(b), ref.block_mask(b));
        }
      }
    }
  }
}

TEST(StreamChunks, GatherTraceReassemblesChunks) {
  // A whole trace replayed in chunks and gathered back is the same trace,
  // word for word: single and multi-chunk streams, wire counts inside one
  // 64-wire group and across three, traces ending off a block.
  Rng rng(23);
  for (const std::size_t wires : {1u, 65u, 130u}) {
    for (const std::size_t chunk_cycles : {64u, 128u, 1024u}) {
      for (const std::size_t cycles : {37u, 300u}) {
        sim::Trace rows =
            sim::make_trace_for_names(std::vector<std::string>(wires, "w"));
        for (std::size_t c = 0; c < cycles; ++c) {
          BitVec row(wires);
          for (std::size_t w = 0; w < wires; ++w) row.set(w, rng.next_bool());
          rows.append_row(row);
        }
        const sim::TransposedTrace whole(rows);
        sim::TransposedTraceSource chunks(whole, chunk_cycles);
        const sim::TransposedTrace gathered = sim::gather_trace(chunks);
        ASSERT_EQ(gathered.num_wires(), wires);
        ASSERT_EQ(gathered.num_cycles(), cycles);
        EXPECT_EQ(gathered.words(), whole.words())
            << "wires=" << wires << " chunk=" << chunk_cycles
            << " cycles=" << cycles;
      }
    }
  }
}

TEST(StreamChunks, UntransposingSinkRoundTripsRows) {
  // Rows -> ChunkedTraceRecorder -> chunks -> UntransposingSink -> rows:
  // wire counts inside one 64-wire group, just past it and across three,
  // traces ending off a block and off a chunk.
  struct Rows final : sim::RowSink {
    std::vector<BitVec> rows;
    void append_row(const BitVec& values) override { rows.push_back(values); }
  };
  Rng rng(17);
  for (const std::size_t wires : {1u, 63u, 65u, 130u}) {
    for (const std::size_t chunk_cycles : {64u, 128u}) {
      for (const std::size_t cycles : {37u, 300u}) {
        std::vector<BitVec> rows(cycles, BitVec(wires));
        for (BitVec& row : rows) {
          for (std::size_t w = 0; w < wires; ++w) row.set(w, rng.next_bool());
        }
        Rows back;
        sim::UntransposingSink untranspose(back);
        sim::ChunkedTraceRecorder recorder(wires, cycles, chunk_cycles,
                                           untranspose);
        for (const BitVec& row : rows) recorder.append_row(row);
        recorder.finish();
        ASSERT_EQ(back.rows.size(), cycles);
        for (std::size_t c = 0; c < cycles; ++c) {
          ASSERT_EQ(back.rows[c], rows[c])
              << "wires=" << wires << " chunk=" << chunk_cycles
              << " cycles=" << cycles << " cycle " << c;
        }
      }
    }
  }
}

/// benign_masks == the scalar benign_matrix oracle at chunk sizes 64, 128
/// and the default; the callers pick trace lengths that end off a chunk and
/// off a 64-cycle block. Returns the oracle's benign (fault, cycle) count.
std::size_t expect_masks_match(const MateSet& set, const sim::Trace& trace) {
  const std::vector<std::vector<bool>> oracle = benign_matrix(set, trace);
  std::size_t benign = 0;
  for (const std::vector<bool>& row : oracle) {
    benign += static_cast<std::size_t>(std::count(row.begin(), row.end(), true));
  }
  const sim::TransposedTrace tt(trace);
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{128},
                                  sim::kDefaultChunkCycles}) {
    sim::TransposedTraceSource source(tt, chunk);
    const std::vector<BitVec> masks = benign_masks(set, source);
    EXPECT_EQ(masks.size(), oracle.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < std::min(masks.size(), oracle.size()); ++i) {
      EXPECT_EQ(masks[i].size(), trace.num_cycles()) << "chunk=" << chunk;
      for (std::size_t c = 0; c < trace.num_cycles(); ++c) {
        if (masks[i].get(c) != oracle[i][c]) {
          ADD_FAILURE() << "chunk=" << chunk << " fault " << i << " cycle "
                        << c;
          return benign;
        }
      }
    }
  }
  return benign;
}

TEST(BenignMasks, MatchOracleOnRandomCircuits) {
  Rng rng(31);
  for (std::size_t round = 0; round < 6; ++round) {
    const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 6,
                                      .num_gates = 40},
                                     rng);
    // Synthetic sets (empty cubes, wires masked by several MATEs) on traces
    // from one cycle up to past two 128-cycle chunks.
    const std::size_t cycles = 1 + rng.next_below(300);
    expect_masks_match(random_mate_set(n, 1 + rng.next_below(12), rng),
                       random_trace(n, cycles, rng));
  }
  const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 8,
                                    .num_gates = 60, .allow_xor = false},
                                   rng);
  SearchParams params;
  params.path_depth = 8;
  params.max_candidates_per_wire = 2000;
  const SearchResult r = find_mates(n, all_flop_wires(n), params);
  expect_masks_match(r.set, random_trace(n, 299, rng));
}

TEST(BenignMasks, MatchOracleOnBothCores) {
  // fib over 1 000 cycles (15 full blocks and a 40-cycle tail), the full
  // flop set; trimmed search parameters keep the MATE sets CI-sized.
  constexpr std::size_t kCycles = 1000;
  for (const char* core : {"avr", "msp430"}) {
    const pipeline::CoreRuntime rt =
        pipeline::CoreRegistry::global().make(core, "fib");
    sim::Trace trace(*rt.netlist);
    rt.boot()->run_stream(kCycles, trace);
    SearchParams params;
    params.path_depth = 8;
    params.max_candidates_per_wire = 2000;
    const SearchResult r =
        find_mates(*rt.netlist, all_flop_wires(*rt.netlist), params);
    SCOPED_TRACE(core);
    EXPECT_GT(expect_masks_match(r.set, trace), 0u);
  }
}

TEST(EvalStream, EquivalenceAcrossChunkSizesAndEdges) {
  Rng rng(42);
  const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 6,
                                    .num_gates = 40},
                                   rng);
  // Cycle counts straddling the 64-cycle block edge and the chunk edges of
  // every chunk size used by expect_stream_matches (64/128/192/4096).
  for (const std::size_t cycles : {63u, 64u, 65u, 129u, 192u, 250u, 300u}) {
    const sim::Trace trace = random_trace(n, cycles, rng);
    const MateSet set = random_mate_set(n, 1 + rng.next_below(12), rng);
    expect_stream_matches(set, trace);
  }
}

TEST(EvalStream, SearchedMatesOnFigure1) {
  const Figure1Circuit fig = build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.c, fig.d, fig.e};
  const SearchResult r = find_mates(fig.netlist, faulty, {});
  ASSERT_FALSE(r.set.mates.empty());
  Rng rng(99);
  for (const std::size_t cycles : {100u, 192u}) {
    expect_stream_matches(r.set, random_trace(fig.netlist, cycles, rng));
  }
}

// The word-parallel kernel's edge inputs: random sets on traces as short as
// one cycle, the empty and the constant-true MATE set, and searched MATEs
// on the shortest Figure-1 traces and on random circuits.
TEST(EvalBitpar, RandomizedEquivalence) {
  Rng rng(42);
  for (std::size_t round = 0; round < 6; ++round) {
    const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 6,
                                      .num_gates = 40},
                                     rng);
    // Cycle counts straddling the block boundary, never only multiples of 64.
    const std::size_t cycles = 1 + rng.next_below(200);
    const sim::Trace trace = random_trace(n, cycles, rng);
    const MateSet set = random_mate_set(n, 1 + rng.next_below(12), rng);
    expect_stream_matches(set, trace);
  }
}

TEST(EvalBitpar, ConstantTrueAndEmptySets) {
  Rng rng(7);
  const Netlist n = netlist::random_circuit({.num_inputs = 3, .num_flops = 4,
                                    .num_gates = 20},
                                   rng);
  const sim::Trace trace = random_trace(n, 130, rng);

  // Empty MATE set.
  MateSet empty;
  empty.faulty_wires = {WireId{0}, WireId{1}};
  expect_stream_matches(empty, trace);

  // A single constant-true MATE must trigger every cycle.
  MateSet constant = empty;
  Mate m;
  m.cube = Cube{};
  m.masked_wires = {WireId{0}};
  constant.mates.push_back(m);
  expect_stream_matches(constant, trace);
  const EvalResult eval = evaluate_mates(constant, trace);
  EXPECT_EQ(eval.per_mate[0].triggers, trace.num_cycles());
  EXPECT_EQ(eval.masked_faults, trace.num_cycles());
}

TEST(EvalBitpar, SearchedMatesOnFigure1) {
  const Figure1Circuit fig = build_figure1_circuit();
  const SearchResult r =
      find_mates(fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, {});
  Rng rng(98);
  // The shortest streams: one cycle, a partial block, exactly one block.
  for (const std::size_t cycles : {1u, 8u, 64u}) {
    expect_stream_matches(r.set, random_trace(fig.netlist, cycles, rng));
  }
}

TEST(EvalBitpar, SearchedMatesOnRandomCircuits) {
  Rng rng(123);
  for (std::size_t round = 0; round < 3; ++round) {
    const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 8,
                                      .num_gates = 60, .allow_xor = false},
                                     rng);
    const std::vector<WireId> faulty = all_flop_wires(n);
    SearchParams params;
    params.path_depth = 8;
    params.max_candidates_per_wire = 2000;
    const SearchResult r = find_mates(n, faulty, params);
    const std::size_t cycles = 65 + rng.next_below(150);
    expect_stream_matches(r.set, random_trace(n, cycles, rng));
  }
}

TEST(EvalStream, RecorderDrivenSourceMatchesWholeTrace) {
  Rng rng(77);
  const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 6,
                                    .num_gates = 40},
                                   rng);
  const std::uint64_t seed = 4242;
  const std::size_t cycles = 300;
  Rng drive(seed);
  const sim::Trace trace = random_trace(n, cycles, drive);
  const MateSet set = random_mate_set(n, 8, rng);

  const EvalResult scalar = evaluate_mates_scalar(set, trace);
  const SelectionResult scalar_sel = rank_mates_scalar(set, trace);
  // Chunks come straight off a re-simulating recorder (owned storage), not
  // from slicing an in-memory transpose; 128 does not divide 300, so the
  // tail chunk is partial. Ranking replays the source for its second pass.
  ResimSource source(n, cycles, 128, seed);
  for (const bool overlap : {false, true}) {
    EXPECT_EQ(scalar, evaluate_mates_stream(set, source, 2, overlap))
        << "overlap=" << overlap;
    EXPECT_EQ(scalar_sel, rank_mates_stream(set, source, 2, overlap))
        << "overlap=" << overlap;
  }
}

TEST(EvalStream, ManualAccumulatorFeeding) {
  Rng rng(55);
  const Netlist n = netlist::random_circuit({.num_inputs = 3, .num_flops = 6,
                                    .num_gates = 35},
                                   rng);
  const sim::Trace trace = random_trace(n, 250, rng);
  const sim::TransposedTrace tt(trace);
  const MateSet set = random_mate_set(n, 6, rng);
  const EvalResult scalar = evaluate_mates_scalar(set, trace);
  const SelectionResult scalar_sel = rank_mates_scalar(set, trace);

  // Mixed chunk sizes in one stream (64 + 128 + 58-cycle tail): the contract
  // only requires 64-alignment of the chunk starts, not uniform sizing.
  {
    EvalAccumulator acc(set);
    acc.consume(sim::cycle_slice(tt, 0, 64), 0);
    EXPECT_EQ(acc.cycles_consumed(), 64u);
    acc.consume(sim::cycle_slice(tt, 1, 128), 64);
    acc.consume(sim::cycle_slice(tt, 3, 58), 192);
    EXPECT_EQ(acc.cycles_consumed(), 250u);
    EXPECT_EQ(acc.finish(), scalar);
  }
  {
    RankAccumulator acc(set);
    for (std::size_t base = 0; base < 250; base += 64) {
      const std::size_t len = std::min<std::size_t>(64, 250 - base);
      acc.consume_volumes(sim::cycle_slice(tt, base / 64, len), base);
    }
    acc.begin_gains();
    for (std::size_t base = 0; base < 250; base += 128) {
      const std::size_t len = std::min<std::size_t>(128, 250 - base);
      acc.consume_gains(sim::cycle_slice(tt, base / 64, len), base);
    }
    EXPECT_EQ(acc.finish(), scalar_sel);
  }
  // Out-of-order and gap-introducing chunks are rejected.
  {
    EvalAccumulator acc(set);
    acc.consume(sim::cycle_slice(tt, 0, 64), 0);
    EXPECT_THROW(acc.consume(sim::cycle_slice(tt, 2, 64), 128), Error);
    EXPECT_THROW(acc.consume(sim::cycle_slice(tt, 0, 64), 0), Error);
  }
}

TEST(EvalStream, DispatcherStreamingEngine) {
  Rng rng(31);
  const Netlist n = netlist::random_circuit({.num_inputs = 4, .num_flops = 6,
                                    .num_gates = 40},
                                   rng);
  const sim::Trace trace = random_trace(n, 200, rng);
  const MateSet set = random_mate_set(n, 10, rng);
  // The in-memory entry points hand the transposed trace to the streaming
  // accumulators; any thread count must match the scalar oracle.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}}) {
    EXPECT_EQ(evaluate_mates_scalar(set, trace),
              evaluate_mates(set, trace, threads))
        << "threads=" << threads;
    EXPECT_EQ(rank_mates_scalar(set, trace), rank_mates(set, trace, threads))
        << "threads=" << threads;
  }
}

TEST(TraceMemory, ChunkAccountingReturnsToBaseline) {
  Rng rng(61);
  const Netlist n = netlist::random_circuit({.num_inputs = 3, .num_flops = 5,
                                    .num_gates = 30},
                                   rng);
  const std::size_t chunk_cycles = 128;
  const std::size_t cycles = 640; // 5 full chunks
  const std::size_t wires = n.num_wires();
  const std::size_t row_words = (wires + 63) / 64;
  const std::size_t chunk_bytes = wires * (chunk_cycles / 64) * 8;
  const std::size_t rows_bytes = 64 * row_words * 8;

  const std::size_t baseline = sim::trace_memory::current();
  sim::trace_memory::reset_peak();
  {
    // Inline consumption that drops each chunk immediately: at most the
    // recorder's block buffer + the chunk being filled + the one emitted
    // chunk are ever resident.
    struct DropSink final : sim::TraceSink {
      std::size_t max_seen = 0;
      void on_chunk(sim::TraceChunk) override {
        max_seen = std::max(max_seen, sim::trace_memory::current());
      }
    } drop;
    ResimSource source(n, cycles, chunk_cycles, 7);
    source.stream(drop);
    EXPECT_GE(drop.max_seen, baseline + chunk_bytes);
  }
  EXPECT_EQ(sim::trace_memory::current(), baseline);
  EXPECT_GE(sim::trace_memory::peak(), baseline + chunk_bytes);
  EXPECT_LE(sim::trace_memory::peak(),
            baseline + 2 * chunk_bytes + rows_bytes);

  // The async pipeline admits at most one finished chunk downstream while
  // the producer fills the next: peak stays within two chunks + the block
  // buffer even with a consumer that holds its chunk for the whole call.
  sim::trace_memory::reset_peak();
  {
    struct HoldSink final : sim::TraceSink {
      std::size_t consumed = 0;
      void on_chunk(sim::TraceChunk chunk) override {
        const sim::TraceChunk held = std::move(chunk);
        (void)held;
        ++consumed;
      }
    } hold;
    ResimSource source(n, cycles, chunk_cycles, 7);
    {
      sim::AsyncTraceSink async(hold);
      source.stream(async);
      async.drain();
    }
    EXPECT_EQ(hold.consumed, cycles / chunk_cycles);
  }
  EXPECT_EQ(sim::trace_memory::current(), baseline);
  EXPECT_LE(sim::trace_memory::peak(),
            baseline + 2 * chunk_bytes + rows_bytes);
}

TEST(StreamChunks, AsyncSinkPropagatesConsumerError) {
  Rng rng(91);
  const Netlist n = netlist::random_circuit({.num_inputs = 2, .num_flops = 4,
                                    .num_gates = 15},
                                   rng);
  struct FailSink final : sim::TraceSink {
    std::size_t seen = 0;
    void on_chunk(sim::TraceChunk) override {
      if (++seen == 2) throw std::runtime_error("consumer failed");
    }
  } fail;
  ResimSource source(n, 640, 128, 3);
  const std::size_t baseline = sim::trace_memory::current();
  EXPECT_THROW(
      {
        sim::AsyncTraceSink async(fail);
        source.stream(async); // rethrows from on_chunk or drain below
        async.drain();
      },
      std::runtime_error);
  // Every chunk the producer managed to hand over was released.
  EXPECT_EQ(sim::trace_memory::current(), baseline);
}

} // namespace
} // namespace ripple::mate
