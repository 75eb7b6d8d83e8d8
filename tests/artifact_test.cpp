#include <gtest/gtest.h>

#include <algorithm>

#include "mate/example.hpp"
#include "pipeline/artifact.hpp"
#include "sim/trace.hpp"
#include "util/serialize.hpp"

namespace ripple::pipeline {
namespace {

// The canonical byte stream doubles as the deep-equality oracle: round-trip
// an artifact and compare the re-serialized payload byte for byte.
template <typename T, typename WriteFn, typename ReadFn>
void expect_roundtrip(const T& value, WriteFn write, ReadFn read) {
  ByteWriter w;
  write(w, value);
  const std::vector<std::uint8_t> bytes = w.bytes();

  ByteReader r(bytes);
  const T back = read(r);
  r.expect_done();

  ByteWriter w2;
  write(w2, back);
  EXPECT_EQ(bytes, w2.bytes());
}

netlist::Netlist build_sequential_netlist() {
  netlist::Netlist n("toy");
  const WireId en = n.add_input("en");
  const FlopId f0 = n.add_flop("bit0", false);
  const FlopId f1 = n.add_flop("bit1", true);
  const WireId q0 = n.flop(f0).q;
  const WireId q1 = n.flop(f1).q;
  const WireId d0 = n.add_gate_new(netlist::Kind::Xor2, {q0, en}, "d0");
  const WireId carry = n.add_gate_new(netlist::Kind::And2, {q0, en}, "carry");
  const WireId d1 = n.add_gate_new(netlist::Kind::Xor2, {q1, carry}, "d1");
  n.connect_flop(f0, d0);
  n.connect_flop(f1, d1);
  n.mark_output(q1);
  n.check();
  return n;
}

TEST(Artifact, NetlistRoundTrip) {
  const netlist::Netlist n = build_sequential_netlist();
  expect_roundtrip(n, write_netlist,
                   [](ByteReader& r) { return read_netlist(r); });

  ByteWriter w;
  write_netlist(w, n);
  ByteReader r(w.bytes());
  const netlist::Netlist back = read_netlist(r);
  EXPECT_EQ(back.name(), "toy");
  EXPECT_EQ(back.num_wires(), n.num_wires());
  EXPECT_EQ(back.num_gates(), n.num_gates());
  EXPECT_EQ(back.num_flops(), n.num_flops());
  EXPECT_EQ(back.primary_inputs().size(), 1u);
  EXPECT_EQ(back.primary_outputs().size(), 1u);
  EXPECT_TRUE(back.find_wire("carry").has_value());
  // Flop init values and D connections (feedback loops) survive.
  EXPECT_FALSE(back.flop(back.find_flop("bit0").value()).init);
  EXPECT_TRUE(back.flop(back.find_flop("bit1").value()).init);
  EXPECT_EQ(back.flop(back.find_flop("bit0").value()).d,
            back.find_wire("d0").value());
}

TEST(Artifact, Figure1NetlistRoundTrip) {
  expect_roundtrip(mate::build_figure1_circuit().netlist, write_netlist,
                   [](ByteReader& r) { return read_netlist(r); });
}

TEST(Artifact, TraceFingerprintCoversNamesAndValues) {
  // An in-memory trace's cache identity: equal traces share it, one flipped
  // bit or one renamed wire changes it.
  const netlist::Netlist n = build_sequential_netlist();
  const auto make = [&](std::size_t flip_cycle, const char* rename) {
    std::vector<std::string> names;
    for (WireId w : n.all_wires()) names.push_back(n.wire(w).name);
    if (rename != nullptr) names[0] = rename;
    sim::Trace t = sim::make_trace_for_names(std::move(names));
    for (std::size_t c = 0; c < 70; ++c) { // > one BitVec word of cycles
      BitVec row(n.num_wires());
      for (std::size_t i = 0; i < n.num_wires(); ++i) {
        row.set(i, ((c * 7 + i) % 3) == 0);
      }
      if (c == flip_cycle) row.flip(2);
      t.append_row(row);
    }
    return t;
  };
  const std::uint64_t fp = fingerprint(make(70, nullptr));
  EXPECT_EQ(fingerprint(make(70, nullptr)), fp);
  EXPECT_NE(fingerprint(make(69, nullptr)), fp);
  EXPECT_NE(fingerprint(make(0, nullptr)), fp);
  EXPECT_NE(fingerprint(make(70, "renamed")), fp);
}

TEST(Artifact, TransposedTraceRoundTrip) {
  const netlist::Netlist n = build_sequential_netlist();
  sim::Trace t(n);
  for (std::size_t c = 0; c < 70; ++c) { // partial second 64-cycle block
    BitVec row(n.num_wires());
    for (std::size_t i = 0; i < n.num_wires(); ++i) {
      row.set(i, ((c * 5 + i) % 3) == 0);
    }
    t.append_row(row);
  }
  const sim::TransposedTrace tt(t);
  expect_roundtrip(tt, write_transposed_trace,
                   [](ByteReader& r) { return read_transposed_trace(r); });

  ByteWriter w;
  write_transposed_trace(w, tt);
  ByteReader r(w.bytes());
  const sim::TransposedTrace back = read_transposed_trace(r);
  EXPECT_EQ(back.num_wires(), tt.num_wires());
  EXPECT_EQ(back.num_cycles(), 70u);
  EXPECT_EQ(back.words(), tt.words());
  EXPECT_EQ(back.value(69, WireId{2}), t.value(69, WireId{2}));
}

mate::MateSet make_mate_set() {
  mate::MateSet set;
  mate::Mate m1;
  m1.cube = mate::Cube{{{WireId{3}, true}, {WireId{5}, false}}};
  m1.masked_wires = {WireId{1}, WireId{2}};
  mate::Mate m2;
  m2.cube = mate::Cube{{{WireId{4}, false}}};
  m2.masked_wires = {WireId{2}};
  set.mates = {m1, m2};
  set.faulty_wires = {WireId{1}, WireId{2}, WireId{7}};
  return set;
}

TEST(Artifact, MateSetRoundTrip) {
  expect_roundtrip(make_mate_set(), write_mate_set,
                   [](ByteReader& r) { return read_mate_set(r); });
}

TEST(Artifact, SearchResultRoundTrip) {
  mate::SearchResult result;
  result.set = make_mate_set();
  mate::WireOutcome o;
  o.wire = WireId{1};
  o.status = mate::WireStatus::Found;
  o.cone_gates = 12;
  o.border_wires = 5;
  o.num_paths = 9;
  o.candidates_tried = 137;
  o.mates_found = 2;
  o.seconds = 0.25;
  result.outcomes = {o};
  result.total_candidates = 137;
  result.total_mates = 2;
  result.unmaskable_wires = 1;
  result.seconds = 1.5;
  result.threads_used = 8;
  result.dedup_classes = 3;
  result.busy_seconds = 4.5;
  expect_roundtrip(result, write_search_result,
                   [](ByteReader& r) { return read_search_result(r); });

  // seconds/threads_used (and the informational dedup/busy stats) are part
  // of the payload: a cache hit replays the original run's timing so table
  // output is byte-identical.
  ByteWriter w;
  write_search_result(w, result);
  ByteReader r(w.bytes());
  const mate::SearchResult back = read_search_result(r);
  EXPECT_DOUBLE_EQ(back.seconds, 1.5);
  EXPECT_EQ(back.threads_used, 8u);
  EXPECT_EQ(back.dedup_classes, 3u);
  EXPECT_DOUBLE_EQ(back.busy_seconds, 4.5);
  EXPECT_EQ(back.outcomes[0].status, mate::WireStatus::Found);
}

TEST(Artifact, EvalResultRoundTrip) {
  mate::EvalResult eval;
  eval.num_cycles = 500;
  eval.num_faulty_wires = 32;
  eval.masked_faults = 1234;
  eval.effective_mates = 5;
  eval.avg_inputs = 3.5;
  eval.sd_inputs = 1.25;
  eval.per_mate = {{10, 100}, {0, 0}, {7, 21}};
  expect_roundtrip(eval, write_eval_result,
                   [](ByteReader& r) { return read_eval_result(r); });
}

TEST(Artifact, SelectionRoundTrip) {
  mate::SelectionResult sel;
  sel.ranking = {2, 0, 1};
  sel.hits = {40, 7, 99};
  expect_roundtrip(sel, write_selection,
                   [](ByteReader& r) { return read_selection(r); });
}

TEST(Artifact, FingerprintIsContentAddressed) {
  // Two independently built but identical netlists share a fingerprint...
  const std::uint64_t a = fingerprint(build_sequential_netlist());
  const std::uint64_t b = fingerprint(build_sequential_netlist());
  EXPECT_EQ(a, b);
  // ...and any structural change breaks it.
  netlist::Netlist changed = build_sequential_netlist();
  changed.add_wire("extra");
  EXPECT_NE(a, fingerprint(changed));
  EXPECT_NE(a, fingerprint(mate::build_figure1_circuit().netlist));
}

TEST(Artifact, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> file = frame_artifact("test", payload);
  const auto back = unframe_artifact("test", file);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(Artifact, FrameRejectsTampering) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const std::vector<std::uint8_t> file = frame_artifact("search", payload);

  // Wrong type tag: a foreign artifact under the right key is not loaded.
  EXPECT_FALSE(unframe_artifact("trace", file).has_value());

  // Flipped payload byte: checksum mismatch.
  std::vector<std::uint8_t> corrupt = file;
  corrupt[file.size() - 9] ^= 0xff;
  EXPECT_FALSE(unframe_artifact("search", corrupt).has_value());

  // Truncation (torn write).
  std::vector<std::uint8_t> torn(file.begin(), file.end() - 1);
  EXPECT_FALSE(unframe_artifact("search", torn).has_value());

  // Not an artifact at all.
  const std::vector<std::uint8_t> junk = {'j', 'u', 'n', 'k'};
  EXPECT_FALSE(unframe_artifact("search", junk).has_value());
}

TEST(Artifact, FrameFromAnotherVersionIsAMiss) {
  // An intact envelope written under another kArtifactVersion (a cache
  // directory left by an older build) unframes to nullopt, so the cache
  // treats it as a miss instead of decoding a foreign payload layout.
  const std::vector<std::uint8_t> payload = {4, 5, 6};
  std::vector<std::uint8_t> file = frame_artifact("eval", payload);
  ASSERT_TRUE(unframe_artifact("eval", file).has_value());
  // The u32 version follows the 4-byte magic, little-endian.
  ByteWriter other;
  other.u32(kArtifactVersion - 1);
  std::copy(other.bytes().begin(), other.bytes().end(), file.begin() + 4);
  EXPECT_FALSE(unframe_artifact("eval", file).has_value());
  ByteWriter newer;
  newer.u32(kArtifactVersion + 1);
  std::copy(newer.bytes().begin(), newer.bytes().end(), file.begin() + 4);
  EXPECT_FALSE(unframe_artifact("eval", file).has_value());
}

} // namespace
} // namespace ripple::pipeline
