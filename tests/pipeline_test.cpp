#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <fstream>

#include <unistd.h>

#include "cores/avr/programs.hpp"
#include "cores/avr/system.hpp"
#include "mate/example.hpp"
#include "mate/stream.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/cache.hpp"
#include "pipeline/options.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/stream.hpp"
#include "sim/transposed.hpp"
#include "support/oracles.hpp"
#include "support/row_major.hpp"
#include "util/options.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {
namespace {

/// Unique temp cache dir per test, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    const auto base = std::filesystem::temp_directory_path();
    for (int i = 0;; ++i) {
      auto candidate =
          base / ("ripple_cache_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(i));
      if (std::filesystem::create_directories(candidate)) {
        path = std::move(candidate);
        return;
      }
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(ArtifactCache, StoreThenLoad) {
  TempDir tmp;
  ArtifactCache cache(tmp.path, true);
  const CacheKey key{"find_mates", 0x1234};
  const std::vector<std::uint8_t> payload = {10, 20, 30};

  EXPECT_FALSE(cache.load(key).has_value());
  cache.store(key, payload);
  const auto back = cache.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ArtifactCache, DisabledCacheNeverHitsOrCounts) {
  TempDir tmp;
  ArtifactCache cache(tmp.path, false);
  const CacheKey key{"find_mates", 7};
  cache.store(key, std::vector<std::uint8_t>{1});
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(ArtifactCache, CorruptFileDegradesToMiss) {
  TempDir tmp;
  ArtifactCache cache(tmp.path, true);
  const CacheKey key{"trace", 42};
  cache.store(key, std::vector<std::uint8_t>{1, 2, 3});

  {
    std::ofstream f(cache.path_for(key), std::ios::binary | std::ios::trunc);
    f << "not an artifact";
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ArtifactCache, KeysAreIndependent) {
  TempDir tmp;
  ArtifactCache cache(tmp.path, true);
  cache.store({"find_mates", 1}, std::vector<std::uint8_t>{1});
  EXPECT_FALSE(cache.load({"find_mates", 2}).has_value());
  EXPECT_FALSE(cache.load({"select", 1}).has_value());
  EXPECT_TRUE(cache.load({"find_mates", 1}).has_value());
}

// The cache-key contract of the find_mates stage: identical inputs hit,
// any SearchParams delta (here: path_depth) misses.
TEST(Pipeline, FindMatesCacheHitAndParamMiss) {
  TempDir tmp;
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const std::uint64_t fp = fingerprint(fig.netlist);
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.d};

  PipelineConfig config;
  config.cache_dir = tmp.path;
  CampaignPipeline pipe(config);

  mate::SearchParams params;
  params.threads = 1;
  const mate::SearchResult first =
      pipe.find_mates(fig.netlist, fp, faulty, params);
  EXPECT_EQ(pipe.cache().stats().hits, 0u);
  EXPECT_EQ(pipe.cache().stats().stores, 1u);

  const mate::SearchResult second =
      pipe.find_mates(fig.netlist, fp, faulty, params);
  EXPECT_EQ(pipe.cache().stats().hits, 1u);

  // Cached result is byte-identical, timing included.
  ByteWriter w1, w2;
  write_search_result(w1, first);
  write_search_result(w2, second);
  EXPECT_EQ(w1.bytes(), w2.bytes());

  // A changed heuristic parameter is a different experiment: miss.
  params.path_depth += 1;
  (void)pipe.find_mates(fig.netlist, fp, faulty, params);
  EXPECT_EQ(pipe.cache().stats().hits, 1u);
  EXPECT_EQ(pipe.cache().stats().stores, 2u);

  // The thread count is excluded from the key: it changes wall time, never
  // results.
  params.path_depth -= 1;
  params.threads = 2;
  (void)pipe.find_mates(fig.netlist, fp, faulty, params);
  EXPECT_EQ(pipe.cache().stats().hits, 2u);
}

TEST(Pipeline, ObserverSeesCacheHitFlag) {
  struct Recorder : StageObserver {
    std::vector<StageStats> stages;
    void stage_end(const StageStats& stats) override {
      stages.push_back(stats);
    }
  };

  TempDir tmp;
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const std::uint64_t fp = fingerprint(fig.netlist);
  const std::vector<WireId> faulty = {fig.d};

  PipelineConfig config;
  config.cache_dir = tmp.path;
  CampaignPipeline pipe(config);
  const auto rec_owner = std::make_shared<Recorder>();
  Recorder& rec = *rec_owner;
  pipe.add_observer(rec_owner);

  mate::SearchParams params;
  params.threads = 1;
  (void)pipe.find_mates(fig.netlist, fp, faulty, params);
  (void)pipe.find_mates(fig.netlist, fp, faulty, params);

  ASSERT_EQ(rec.stages.size(), 2u);
  EXPECT_EQ(rec.stages[0].stage, "find_mates");
  EXPECT_TRUE(rec.stages[0].cacheable);
  EXPECT_FALSE(rec.stages[0].cache_hit);
  EXPECT_TRUE(rec.stages[1].cache_hit);
  EXPECT_GE(rec.stages[0].seconds, 0.0);
}

// The per-chunk cache-key contract of the streaming record_trace stage:
// chunk keys exclude the total cycle count, so extending a run's tail
// replays the cached prefix chunks and only the new trailing chunks
// simulate; a partial tail chunk is keyed by its own length.
TEST(Pipeline, ChunkedStreamTailExtensionReusesPrefixChunks) {
  struct Recorder : StageObserver {
    std::vector<StageStats> stages;
    void stage_end(const StageStats& stats) override {
      stages.push_back(stats);
    }
  };
  struct CountSink final : sim::TraceSink {
    std::size_t chunks = 0;
    void on_chunk(sim::TraceChunk) override { ++chunks; }
  };
  const auto counter = [](const StageStats& s, const char* name) {
    for (const auto& [key, value] : s.counters) {
      if (key == name) return value;
    }
    return -1.0;
  };

  TempDir tmp;
  PipelineConfig config;
  config.cache_dir = tmp.path;
  config.trace_chunk_cycles = 128;
  CampaignPipeline pipe(config);
  const auto rec_owner = std::make_shared<Recorder>();
  Recorder& rec = *rec_owner;
  pipe.add_observer(rec_owner);

  // 256 cycles = 2 chunks, cold cache: both simulate and are stored.
  const auto s1 = pipe.trace_stream(CoreKind::Avr, "fib", 256);
  CountSink first;
  s1->stream(first);
  EXPECT_EQ(first.chunks, 2u);
  ASSERT_EQ(rec.stages.size(), 1u);
  EXPECT_EQ(rec.stages[0].stage, "record_trace");
  EXPECT_EQ(counter(rec.stages[0], "chunk_misses"), 2.0);
  EXPECT_EQ(counter(rec.stages[0], "chunk_hits"), 0.0);
  EXPECT_FALSE(rec.stages[0].cache_hit);

  // Replay (rank_mates_stream's second pass): both chunks hit.
  CountSink replay;
  s1->stream(replay);
  ASSERT_EQ(rec.stages.size(), 2u);
  EXPECT_EQ(counter(rec.stages[1], "chunk_hits"), 2.0);
  EXPECT_EQ(counter(rec.stages[1], "chunk_misses"), 0.0);
  EXPECT_TRUE(rec.stages[1].cache_hit);

  // Tail extension to 384 cycles: prefix chunks hit, only the new tail
  // chunk simulates. The stream identity still changes with the length.
  const auto s2 = pipe.trace_stream(CoreKind::Avr, "fib", 384);
  EXPECT_NE(s1->fingerprint(), s2->fingerprint());
  CountSink extended;
  s2->stream(extended);
  EXPECT_EQ(extended.chunks, 3u);
  ASSERT_EQ(rec.stages.size(), 3u);
  EXPECT_EQ(counter(rec.stages[2], "chunk_hits"), 2.0);
  EXPECT_EQ(counter(rec.stages[2], "chunk_misses"), 1.0);

  // Shortening to 192 cycles cuts the second chunk to 64 cycles: the full
  // first chunk hits, but the shorter tail is its own key (a cached
  // 128-cycle chunk must never stand in for a 64-cycle one).
  const auto s3 = pipe.trace_stream(CoreKind::Avr, "fib", 192);
  CountSink shortened;
  s3->stream(shortened);
  EXPECT_EQ(shortened.chunks, 2u);
  ASSERT_EQ(rec.stages.size(), 4u);
  EXPECT_EQ(counter(rec.stages[3], "chunk_hits"), 1.0);
  EXPECT_EQ(counter(rec.stages[3], "chunk_misses"), 1.0);
}

// The streamed chunks carry exactly the bits of an independent whole-trace
// recording — the AVR system stepped into a sim::Trace, then transposed:
// every chunk equals the corresponding cycle range, word for word.
TEST(Pipeline, ChunkedStreamMatchesWholeTraceRecording) {
  TempDir tmp;
  PipelineConfig config;
  config.cache_dir = tmp.path;
  config.trace_chunk_cycles = 128;
  CampaignPipeline pipe(config);

  constexpr std::size_t kCycles = 300; // 2 full chunks + a 44-cycle tail
  const cores::avr::AvrCore core = cores::avr::build_avr_core(true);
  cores::avr::AvrSystem system(core, cores::avr::fib_program());
  sim::Trace whole(core.netlist);
  system.run_stream(kCycles, whole);
  const sim::TransposedTrace tt(whole);

  const auto stream = pipe.trace_stream(CoreKind::Avr, "fib", kCycles);
  EXPECT_EQ(stream->num_wires(), core.netlist.num_wires());
  EXPECT_EQ(stream->num_cycles(), kCycles);
  struct Collect final : sim::TraceSink {
    std::vector<sim::TraceChunk> chunks;
    void on_chunk(sim::TraceChunk c) override {
      chunks.push_back(std::move(c));
    }
  } collect;
  stream->stream(collect);
  ASSERT_EQ(collect.chunks.size(), 3u);
  for (const sim::TraceChunk& c : collect.chunks) {
    const sim::TransposedSlice ref =
        sim::cycle_slice(tt, c.base_cycle / 64, c.slice.num_cycles);
    ASSERT_EQ(c.slice.num_blocks, ref.num_blocks);
    for (std::size_t w = 0; w < tt.num_wires(); ++w) {
      for (std::size_t b = 0; b < ref.num_blocks; ++b) {
        ASSERT_EQ(c.slice.wire_words(w)[b], ref.wire_words(w)[b])
            << "chunk " << c.index << " wire " << w << " block " << b;
      }
    }
  }
}

std::vector<std::uint8_t> bytes(const mate::EvalResult& eval) {
  ByteWriter w;
  write_eval_result(w, eval);
  return w.take();
}

std::vector<std::uint8_t> bytes(const mate::SelectionResult& sel) {
  ByteWriter w;
  write_selection(w, sel);
  return w.take();
}

/// Search parameters trimmed so a core's full-flop MATE set stays CI-sized.
mate::SearchParams trimmed_params() {
  mate::SearchParams params;
  params.path_depth = 8;
  params.max_candidates_per_wire = 2000;
  return params;
}

/// TraceSink feeding an EvalAccumulator chunk by chunk.
struct AccumulatorSink final : sim::TraceSink {
  explicit AccumulatorSink(mate::EvalAccumulator& target) : acc(&target) {}
  void on_chunk(sim::TraceChunk chunk) override {
    acc->consume(chunk.slice, chunk.base_cycle);
  }
  mate::EvalAccumulator* acc;
};

/// The evaluate/select oracles on a real core (fib trace of `cycles`
/// cycles, full flop set searched with `params`): the scalar oracle, an
/// evaluate pass overlapped by hand on an AsyncTraceSink worker, the stages
/// over setup()'s in-memory trace and the stages over a chunked trace_stream
/// produce byte-identical artifacts.
void expect_stages_match_oracle(CoreKind kind, std::size_t cycles,
                                const mate::SearchParams& params) {
  PipelineConfig config;           // no cache: every stage computes
  config.trace_chunk_cycles = 256; // several chunks per stream
  CampaignPipeline pipe(config);
  const CoreSetup setup = pipe.setup({kind, cycles});
  const mate::MateSet set =
      pipe.find_mates(setup, setup.ff, params, setup.name + " FF").set;
  ASSERT_FALSE(set.mates.empty());

  const sim::Trace fib_rows = sim::untranspose(setup.netlist, setup.fib_trace);
  const std::vector<std::uint8_t> oracle_eval =
      bytes(mate::evaluate_mates_scalar(set, fib_rows));
  const std::vector<std::uint8_t> oracle_sel =
      bytes(mate::rank_mates_scalar(set, fib_rows));

  mate::EvalAccumulator acc(set);
  AccumulatorSink consumer(acc);
  sim::TransposedTraceSource chunked(setup.fib_trace,
                                     config.trace_chunk_cycles);
  {
    sim::AsyncTraceSink async(consumer);
    chunked.stream(async);
    async.drain();
  }
  EXPECT_EQ(bytes(acc.finish()), oracle_eval);

  sim::TransposedTraceSource fib(setup.fib_trace);
  EXPECT_EQ(
      bytes(pipe.evaluate_stream(set, fib, setup.fib_trace_fp, "in memory")),
      oracle_eval);
  EXPECT_EQ(
      bytes(pipe.select_stream(set, fib, setup.fib_trace_fp, "in memory")),
      oracle_sel);

  const auto stream = pipe.trace_stream(kind, "fib", cycles);
  EXPECT_EQ(bytes(pipe.evaluate_stream(set, *stream, stream->fingerprint(),
                                       "stream")),
            oracle_eval);
  EXPECT_EQ(bytes(pipe.select_stream(set, *stream, stream->fingerprint(),
                                     "stream")),
            oracle_sel);
}

TEST(Pipeline, AvrEvalSelectStagesMatchScalarOracle) {
  expect_stages_match_oracle(CoreKind::Avr, 1024, trimmed_params());
  // The paper's 8 500-cycle trace under the default search parameters.
  expect_stages_match_oracle(CoreKind::Avr, kDefaultTraceCycles, {});
}

TEST(Pipeline, Msp430EvalSelectStagesMatchScalarOracle) {
  expect_stages_match_oracle(CoreKind::Msp430, 1024, trimmed_params());
}

// One golden path: a Pruned top-N request ranks on the workload's chunk
// stream and its campaign's golden run reads the same cached chunk. Replayed
// with resume on the same cache, it reads no trace at all — the selection
// hits without streaming and every shard resumes, so the golden run is never
// streamed.
/// Every stage record a pipeline reports.
struct Recorder : StageObserver {
  std::vector<StageStats> stages;
  void stage_end(const StageStats& stats) override { stages.push_back(stats); }
  [[nodiscard]] std::vector<StageStats> named(std::string_view name) const {
    std::vector<StageStats> out;
    for (const StageStats& s : stages) {
      if (s.stage == name) out.push_back(s);
    }
    return out;
  }
};

double counter(const StageStats& s, const char* name) {
  for (const auto& [key, value] : s.counters) {
    if (key == name) return value;
  }
  return -1.0;
}

TEST(Pipeline, ResumedPrunedReplayReadsNoTrace) {
  TempDir tmp;
  CampaignRequest request;
  request.core = "avr";
  request.config.run_cycles = 200;
  request.config.sample = 24;
  request.config.seed = 5;
  request.config.threads = 2;
  request.config.shard_size = 6; // 4 shards
  request.config.mode = hafi::CampaignMode::Pruned;
  request.search_depth = 8;
  request.top_n = 20;
  request.resume = true;

  const auto run_once = [&](const std::shared_ptr<Recorder>& rec) {
    PipelineConfig config;
    config.cache_dir = tmp.path;
    config.threads = 2;
    CampaignPipeline pipe(config);
    pipe.add_observer(rec);
    ByteWriter w;
    write_campaign_result(w, pipe.run(request));
    return w.take();
  };
  const auto cold = std::make_shared<Recorder>();
  const auto warm = std::make_shared<Recorder>();
  const std::vector<std::uint8_t> first = run_once(cold);
  const std::vector<std::uint8_t> second = run_once(warm);
  EXPECT_EQ(first, second);

  // Cold: the selection's first pass simulates the one chunk; its second
  // pass and the golden run replay it.
  const std::vector<StageStats> cold_traces = cold->named("record_trace");
  ASSERT_EQ(cold_traces.size(), 3u);
  EXPECT_EQ(counter(cold_traces[0], "chunk_misses"), 1.0);
  EXPECT_TRUE(cold_traces[1].cache_hit);
  EXPECT_TRUE(cold_traces[2].cache_hit);
  EXPECT_FALSE(cold->named("select").at(0).cache_hit);

  // Warm: no trace stage at all.
  EXPECT_TRUE(warm->named("record_trace").empty());
  ASSERT_EQ(warm->named("select").size(), 1u);
  EXPECT_TRUE(warm->named("select")[0].cache_hit);
  const StageStats campaign = warm->named("campaign").at(0);
  EXPECT_EQ(counter(campaign, "shards_resumed"), 4.0);
  EXPECT_EQ(counter(campaign, "shards"), 4.0);
  EXPECT_GT(counter(campaign, "pruned"), 0.0);

  // A Baseline campaign whose 126-point shard is labelled: cold, the golden
  // run's chunk is read for the labels; fully resumed, no trace is read.
  request.config.mode = hafi::CampaignMode::Baseline;
  request.config.sample = 130;
  request.config.shard_size = 126; // 2 shards
  const auto base_cold = std::make_shared<Recorder>();
  const auto base_warm = std::make_shared<Recorder>();
  const std::vector<std::uint8_t> base_first = run_once(base_cold);
  EXPECT_EQ(run_once(base_warm), base_first);
  EXPECT_EQ(base_cold->named("record_trace").size(), 1u);
  EXPECT_GT(counter(base_cold->named("campaign").at(0), "confined"), 0.0);
  EXPECT_TRUE(base_warm->named("record_trace").empty());
  const StageStats base_replay = base_warm->named("campaign").at(0);
  EXPECT_EQ(counter(base_replay, "shards_resumed"), 2.0);
  EXPECT_EQ(counter(base_replay, "confined"), 0.0);
  EXPECT_EQ(counter(base_replay, "executed"), 130.0);
}

TEST(Pipeline, BaselineReadsTheGoldenRunOnlyForLabels) {
  // Windows that fit one pass each cannot save a pass, so a Baseline run()
  // computes no labels and streams no trace at all: 19 shards of 7 points
  // make windows of 56, 56 and 18 points, one pass from reset each. One
  // window of two 126-point shards has 130 points to execute: the labels
  // resolve points without a lane, the same stream captures the snapshots
  // its passes start from, and the stage counts both.
  CampaignRequest request;
  request.core = "msp430";
  request.config.run_cycles = 200;
  request.config.sample = 130;
  request.config.seed = 5;
  request.config.threads = 2;
  request.config.shard_size = 7;

  CampaignPipeline pipe;
  const auto one_pass = std::make_shared<Recorder>();
  pipe.add_observer(one_pass);
  const hafi::CampaignResult plain = pipe.run(request);
  pipe.remove_observer(one_pass);
  EXPECT_TRUE(one_pass->named("record_trace").empty());
  const StageStats stage = one_pass->named("campaign").at(0);
  EXPECT_EQ(counter(stage, "shards"), 19.0);
  EXPECT_EQ(counter(stage, "confined"), 0.0);
  EXPECT_EQ(counter(stage, "dut_passes"), 3.0);
  EXPECT_EQ(counter(stage, "pass_cycles"), 600.0);

  request.config.shard_size = 126; // 2 shards, one window
  const auto labelled = std::make_shared<Recorder>();
  pipe.add_observer(labelled);
  const hafi::CampaignResult result = pipe.run(request);
  EXPECT_EQ(labelled->named("record_trace").size(), 1u);
  const StageStats lstage = labelled->named("campaign").at(0);
  EXPECT_GT(counter(lstage, "confined"), 0.0);
  EXPECT_EQ(counter(lstage, "executed"), static_cast<double>(result.executed));
  EXPECT_LE(counter(lstage, "lane_utilization"), 1.0);
  // The 40 points left share one pass, and it starts at its first
  // injection, cycle 1, not at reset.
  EXPECT_EQ(counter(lstage, "confined"), 90.0);
  EXPECT_EQ(counter(lstage, "dut_passes"), 1.0);
  EXPECT_EQ(counter(lstage, "pass_cycles"), 199.0);
  // The labels change how points were resolved, never their outcomes.
  EXPECT_EQ(result.experiments, plain.experiments);
}

TEST(PipelineOptions, ParsesSharedFlags) {
  OptionParser parser("prog", "test");
  PipelineOptions opts;
  register_pipeline_options(parser, opts, kCache | kThreads | kCsv | kDepth);

  const char* argv[] = {"prog",          "--csv",       "--cache-dir=/tmp/c",
                        "--threads", "3", "--depth=9",   "--no-cache",
                        "--report=json:out.json"};
  EXPECT_EQ(parser.parse(8, const_cast<char**>(argv)),
            OptionParser::Result::Ok);
  EXPECT_TRUE(opts.csv);
  EXPECT_TRUE(opts.no_cache);
  EXPECT_EQ(opts.cache_dir, "/tmp/c");
  EXPECT_EQ(opts.threads, 3u);
  EXPECT_EQ(opts.depth, 9u);
  EXPECT_TRUE(opts.report_json());
  EXPECT_EQ(opts.report_file(), "out.json");

  const PipelineConfig config = opts.config();
  EXPECT_EQ(config.cache_dir, "/tmp/c");
  EXPECT_FALSE(config.use_cache); // --no-cache wins over --cache-dir
  EXPECT_EQ(config.threads, 3u);

  const mate::SearchParams params = opts.search_params();
  EXPECT_EQ(params.path_depth, 9u);
  EXPECT_EQ(params.threads, 3u);
}

TEST(PipelineOptions, DepthZeroKeepsDefault) {
  OptionParser parser("prog", "test");
  PipelineOptions opts;
  register_pipeline_options(parser, opts, kDepth);
  const char* argv[] = {"prog"};
  EXPECT_EQ(parser.parse(1, const_cast<char**>(argv)),
            OptionParser::Result::Ok);
  EXPECT_EQ(opts.search_params().path_depth, mate::SearchParams{}.path_depth);
  EXPECT_FALSE(opts.report_json());
}

// Bad values of the shared flags fail the parse itself, so every binary
// exits 2 before doing any work. The --threads cap is checked here only:
// no pool is started.
TEST(PipelineOptions, RejectsBadReportAndChunkValuesAtParseTime) {
  const auto parse = [](const char* arg) {
    OptionParser parser("prog", "test");
    PipelineOptions opts;
    register_pipeline_options(parser, opts,
                              kThreads | kDepth | kTraceChunkCycles);
    const char* argv[] = {"prog", arg};
    return parser.parse(2, const_cast<char**>(argv));
  };
  EXPECT_EQ(parse("--report=jsn"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--trace-chunk-cycles=100"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--depth=4294967296"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--depth=4294967297"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--threads=1025"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--threads=80000"), OptionParser::Result::Error);
  EXPECT_EQ(parse("--report=json:out.json"), OptionParser::Result::Ok);
  EXPECT_EQ(parse("--trace-chunk-cycles=128"), OptionParser::Result::Ok);
  EXPECT_EQ(parse("--depth=4294967295"), OptionParser::Result::Ok);
  EXPECT_EQ(parse("--threads=1024"), OptionParser::Result::Ok);
}

// A shared flag outside a binary's mask is as unknown as a made-up one.
TEST(PipelineOptions, RejectsUnknownFlag) {
  for (const char* arg : {"--frobnicate", "--csv", "--cycles=100"}) {
    OptionParser parser("prog", "test");
    PipelineOptions opts;
    register_pipeline_options(parser, opts, kCache | kThreads | kDepth);
    const char* argv[] = {"prog", arg};
    EXPECT_EQ(parser.parse(2, const_cast<char**>(argv)),
              OptionParser::Result::Error)
        << arg;
  }
}

} // namespace
} // namespace ripple::pipeline
