#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "mate/example.hpp"
#include "mate/report.hpp"
#include "mate/search.hpp"
#include "netlist/random.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/observer.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "support/row_major.hpp"
#include "util/strings.hpp"

namespace ripple {
namespace {

TEST(NetlistStats, CountsSmallCircuit) {
  netlist::Netlist n("counts");
  const WireId a = n.add_input("a");
  const WireId b = n.add_input("b");
  const WireId x = n.add_gate_new(netlist::Kind::And2, {a, b}, "x");
  const WireId y = n.add_gate_new(netlist::Kind::Inv, {x}, "y");
  const FlopId f = n.add_flop("r", false);
  n.connect_flop(f, y);
  n.mark_output(n.flop(f).q);

  const sim::NetlistStats s = sim::compute_stats(n);
  EXPECT_EQ(s.name, "counts");
  EXPECT_EQ(s.gates, 2u);
  EXPECT_EQ(s.flops, 1u);
  EXPECT_EQ(s.primary_inputs, 2u);
  EXPECT_EQ(s.primary_outputs, 1u);
  EXPECT_EQ(s.comb_depth, 2u);
  EXPECT_EQ(s.by_kind.at(netlist::Kind::And2), 1u);
  EXPECT_EQ(s.by_kind.at(netlist::Kind::Dff), 1u);
  EXPECT_GT(s.area_um2, 0.0);
  // a, b, x each have exactly one reader; y feeds the flop.
  EXPECT_DOUBLE_EQ(s.avg_fanout, 1.0);
  EXPECT_EQ(s.max_fanout, 1u);
}

TEST(NetlistStats, FanoutTracksHeavyWire) {
  netlist::Netlist n;
  const WireId a = n.add_input("a");
  for (int i = 0; i < 7; ++i) {
    n.mark_output(
        n.add_gate_new(netlist::Kind::Inv, {a}, strprintf("o%d", i)));
  }
  const sim::NetlistStats s = sim::compute_stats(n);
  EXPECT_EQ(s.max_fanout, 7u);
}

TEST(NetlistStats, PrintContainsEverything) {
  Rng rng(3);
  const netlist::Netlist n = netlist::random_circuit({}, rng);
  std::ostringstream os;
  sim::print_stats(sim::compute_stats(n), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("gates"), std::string::npos);
  EXPECT_NE(text.find("depth"), std::string::npos);
  EXPECT_NE(text.find("DFF_X1"), std::string::npos);
}

TEST(Report, JsonEscape) {
  EXPECT_EQ(mate::json_escape("plain"), "plain");
  EXPECT_EQ(mate::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(mate::json_escape("x\ny"), "x\\ny");
  EXPECT_EQ(mate::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Report, SearchJsonWellFormedish) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const mate::SearchResult r = mate::find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, {});
  std::ostringstream os;
  write_search_json(fig.netlist, r, os);
  const std::string json = os.str();
  // Structural smoke checks (no JSON parser in the toolchain).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"module\": \"figure1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"unmaskable\""), std::string::npos);
  EXPECT_NE(json.find("\"wire\": \"f\", \"value\": false"),
            std::string::npos)
      << "the paper's (!f & h) MATE must appear";
}

TEST(Report, SearchJsonOmitsWallClock) {
  // The artifact describes the search result, not the run that produced
  // it: two runs that differ only in wall-clock time write the same bytes.
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  mate::SearchResult r = mate::find_mates(
      fig.netlist, {fig.a, fig.b, fig.c, fig.d, fig.e}, {});
  r.seconds = 0.106412;
  std::ostringstream first;
  write_search_json(fig.netlist, r, first);
  r.seconds = 0.11844;
  std::ostringstream second;
  write_search_json(fig.netlist, r, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(first.str().find("seconds"), std::string::npos) << first.str();
}

TEST(Report, MateCsvRowsMatchSet) {
  const mate::Figure1Circuit fig = mate::build_figure1_circuit();
  const std::vector<WireId> faulty = {fig.a, fig.b, fig.d};
  const mate::SearchResult r = mate::find_mates(fig.netlist, faulty, {});

  sim::Simulator sim(fig.netlist);
  Rng rng(9);
  const sim::Trace trace =
      sim::record_trace(sim, 16, [&](sim::Simulator& s, std::size_t) {
        for (WireId w : fig.netlist.primary_inputs()) {
          s.set_input(w, rng.next_bool());
        }
      });
  const mate::EvalResult eval = evaluate_mates(r.set, trace);

  std::ostringstream os;
  write_mate_csv(fig.netlist, r.set, &eval, os);
  const std::string csv = os.str();
  const std::size_t lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, r.set.mates.size() + 1); // header + one row per MATE
  EXPECT_NE(csv.find("triggers"), std::string::npos);

  std::ostringstream os2;
  write_mate_csv(fig.netlist, r.set, nullptr, os2);
  EXPECT_EQ(os2.str().find("triggers"), std::string::npos);
}

TEST(Metrics, CounterSetKeepsSetSemanticsAndOrder) {
  obs::CounterSet counters;
  counters.set("mates", 3.0);
  counters.set("candidates", 10.0);
  counters.set("mates", 5.0); // overwrite, not append
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "mates");
  EXPECT_DOUBLE_EQ(counters[0].second, 5.0);
  EXPECT_DOUBLE_EQ(counters.value_or("candidates", -1.0), 10.0);
  EXPECT_DOUBLE_EQ(counters.value_or("absent", -1.0), -1.0);

  // The StageStats call-site idioms: emplace_back + structured bindings.
  counters.emplace_back("extra", 1.0);
  double sum = 0.0;
  for (const auto& [name, value] : counters) sum += value;
  EXPECT_DOUBLE_EQ(sum, 16.0);
}

TEST(Metrics, HistogramQuantilesAreMonotone) {
  obs::MetricRegistry registry;
  constexpr double kBounds[] = {1.0, 2.0, 4.0, 8.0};
  obs::Histogram& h = registry.histogram("latency", kBounds);
  for (int i = 0; i < 100; ++i) h.record(0.5 + i * 0.1); // spills overflow
  const auto snapshots = registry.histograms();
  ASSERT_EQ(snapshots.size(), 1u);
  const auto& s = snapshots[0];
  EXPECT_EQ(s.count, 100u);
  const double p50 = s.quantile(0.50);
  const double p90 = s.quantile(0.90);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Overflow bucket clamps to the last finite bound instead of inventing
  // an upper edge.
  EXPECT_LE(p99, 8.0);
}

TEST(Metrics, RegistryCountersAndGaugesFoldIntoCounterSet) {
  obs::MetricRegistry registry;
  registry.counter("requests").add(3.0);
  registry.gauge("queue_depth").set(7.0);
  const obs::CounterSet counters = registry.counters();
  EXPECT_DOUBLE_EQ(counters.value_or("requests", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(counters.value_or("queue_depth", -1.0), 7.0);
}

TEST(Report, V2EnvelopeKeepsV1FieldsAndAddsHistograms) {
  static_assert(pipeline::kReportVersion == 2);
  obs::MetricRegistry registry;
  constexpr double kBounds[] = {0.1, 1.0, 10.0};
  obs::Histogram& h = registry.histogram("shard_seconds", kBounds);
  for (int i = 1; i <= 10; ++i) h.record(0.05 * i);
  registry.counter("dedup_hits").add(4.0);

  pipeline::JsonReportObserver report;
  report.set_metric_registry(&registry);
  pipeline::StageStats stats;
  stats.stage = "campaign";
  stats.detail = "AVR";
  stats.seconds = 1.5;
  stats.threads = 2;
  stats.counters.set("executed", 100.0);
  report.stage_end(stats);
  report.set_counter("cache_hits", 2.0);

  std::ostringstream os;
  report.write(os, "stats_report_test");
  const std::string json = os.str();

  // v1 fields, unchanged shape.
  EXPECT_NE(json.find("\"tool\": \"stats_report_test\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"executed\": 100"), std::string::npos);
  EXPECT_NE(json.find("peak_rss_bytes"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\": 2"), std::string::npos);
  // Registry counters folded into counters{}.
  EXPECT_NE(json.find("\"dedup_hits\": 4"), std::string::npos);
  // v2: histograms with quantiles.
  const std::size_t hist_pos = json.find("\"histograms\"");
  ASSERT_NE(hist_pos, std::string::npos);
  EXPECT_NE(json.find("\"shard_seconds\": {\"count\": 10", hist_pos),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":", hist_pos), std::string::npos);
  EXPECT_NE(json.find("\"p99\":", hist_pos), std::string::npos);
  // Balanced braces — structural well-formedness without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Report, HistogramsSectionAlwaysPresent) {
  pipeline::JsonReportObserver report;
  report.set_metric_registry(nullptr);
  std::ostringstream os;
  report.write(os, "t");
  EXPECT_NE(os.str().find("\"histograms\": {}"), std::string::npos);
}

/// Run a deterministic little span workload against an installed recorder.
void record_span_workload() {
  obs::Span outer("pipeline", "stage:evaluate", "outer");
  for (int i = 0; i < 3; ++i) {
    obs::Span inner("stream", "chunk");
    if (inner.active()) inner.set_detail("chunk " + std::to_string(i));
  }
  std::thread worker([] { obs::Span span("pool", "batch"); });
  worker.join();
}

TEST(Trace, ChromeExportIsWellFormedAndSpansNest) {
  obs::TraceRecorder recorder;
  obs::TraceRecorder::install(&recorder);
  record_span_workload();
  obs::TraceRecorder::install(nullptr);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);

  // Per-thread stack discipline: spans on one tid either nest or are
  // disjoint, never partially overlap.
  for (const auto& a : events) {
    for (const auto& b : events) {
      if (a.tid != b.tid || a.start_ns > b.start_ns) continue;
      const std::uint64_t a_end = a.start_ns + a.dur_ns;
      const std::uint64_t b_end = b.start_ns + b.dur_ns;
      EXPECT_TRUE(b.start_ns >= a_end || b_end <= a_end)
          << a.name << " and " << b.name << " partially overlap";
    }
  }

  std::ostringstream os;
  recorder.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("stage:evaluate"), std::string::npos);
  EXPECT_NE(json.find("chunk 2"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, SameWorkloadYieldsSameSpanShape) {
  // Two runs of the same (deterministic) workload must produce the same
  // multiset of (cat, name, detail) — the timeline's *shape* is a function
  // of the work, not the timing.
  auto shape = [] {
    obs::TraceRecorder recorder;
    obs::TraceRecorder::install(&recorder);
    record_span_workload();
    obs::TraceRecorder::install(nullptr);
    std::vector<std::string> out;
    for (const auto& e : recorder.snapshot()) {
      out.push_back(std::string(e.cat) + "/" + e.name + "/" + e.detail);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(shape(), shape());
}

TEST(Trace, NoRecorderMeansNoCostAndNoCrash) {
  ASSERT_EQ(obs::TraceRecorder::current(), nullptr);
  obs::Span span("pipeline", "stage:idle");
  EXPECT_FALSE(span.active());
  span.set_detail("ignored");
}

} // namespace
} // namespace ripple
