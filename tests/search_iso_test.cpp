// Cone-isomorphism dedup (mate/iso.hpp): canonical fingerprints, cube
// remapping, the both-direction minimality recorder, and the end-to-end
// guarantee that find_mates is byte-identical to the per-wire oracle of
// tests/support — on hand-built twins, random circuits and both cores' flop
// sets and register files, whose exact class counts are pinned. The oracle
// searches on the reference DFS (one coverage bit per path, Cube::conjoin
// per candidate), so these suites also check the production DFS (literals
// assigned in place, coverage over path classes in flat word rows)
// candidate for candidate, also at class counts on 64-bit word boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "cores/avr/core.hpp"
#include "cores/msp430/core.hpp"
#include "mate/iso.hpp"
#include "mate/search.hpp"
#include "netlist/random.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ripple::mate {
namespace {

using netlist::Kind;
using netlist::Netlist;

/// Two structurally identical single-AND cones behind flops fa/fb, gated by
/// distinct enable inputs, plus an OR-shaped third cone. Exercises match,
/// kind mismatch and pin-binding mismatch.
struct TwinCircuit {
  Netlist n;
  FlopId fa, fb, fc;
  WireId ena, enb, enc;
};

TwinCircuit build_twins() {
  TwinCircuit t;
  t.ena = t.n.add_input("ena");
  t.enb = t.n.add_input("enb");
  t.enc = t.n.add_input("enc");
  t.fa = t.n.add_flop("fa", false);
  t.fb = t.n.add_flop("fb", false);
  t.fc = t.n.add_flop("fc", false);
  const FlopId ta = t.n.add_flop("ta", false);
  const FlopId tb = t.n.add_flop("tb", false);
  const FlopId tc = t.n.add_flop("tc", false);
  t.n.connect_flop(
      ta, t.n.add_gate_new(Kind::And2, {t.n.flop(t.fa).q, t.ena}, "ka"));
  t.n.connect_flop(
      tb, t.n.add_gate_new(Kind::And2, {t.n.flop(t.fb).q, t.enb}, "kb"));
  t.n.connect_flop(
      tc, t.n.add_gate_new(Kind::Or2, {t.n.flop(t.fc).q, t.enc}, "kc"));
  t.n.connect_flop(t.fa, t.ena);
  t.n.connect_flop(t.fb, t.enb);
  t.n.connect_flop(t.fc, t.enc);
  t.n.mark_output(t.n.flop(ta).q);
  t.n.mark_output(t.n.flop(tb).q);
  t.n.mark_output(t.n.flop(tc).q);
  return t;
}

/// Everything that must be byte-identical between the per-wire oracle and
/// the dedup search. Timing fields and the informational
/// threads_used/dedup_classes are excluded, exactly like the cached-artifact
/// replay path treats them.
void expect_identical(const SearchResult& oracle, const SearchResult& dedup) {
  EXPECT_EQ(oracle.set.mates.size(), dedup.set.mates.size());
  EXPECT_TRUE(oracle.set == dedup.set);
  ASSERT_EQ(oracle.outcomes.size(), dedup.outcomes.size());
  for (std::size_t i = 0; i < oracle.outcomes.size(); ++i) {
    const WireOutcome& x = oracle.outcomes[i];
    const WireOutcome& y = dedup.outcomes[i];
    EXPECT_EQ(x.wire, y.wire);
    EXPECT_EQ(x.status, y.status) << "wire index " << i;
    EXPECT_EQ(x.cone_gates, y.cone_gates);
    EXPECT_EQ(x.border_wires, y.border_wires);
    EXPECT_EQ(x.num_paths, y.num_paths);
    EXPECT_EQ(x.candidates_tried, y.candidates_tried) << "wire index " << i;
    EXPECT_EQ(x.mates_found, y.mates_found) << "wire index " << i;
  }
  EXPECT_EQ(oracle.total_candidates, dedup.total_candidates);
  EXPECT_EQ(oracle.total_mates, dedup.total_mates);
  EXPECT_EQ(oracle.unmaskable_wires, dedup.unmaskable_wires);
}

TEST(IsoFingerprint, TwinConesMatchDifferentShapesDont) {
  const TwinCircuit t = build_twins();
  const auto topo = topo_positions(t.n);
  const FaultCone ca = compute_cone(t.n, t.n.flop(t.fa).q, topo);
  const FaultCone cb = compute_cone(t.n, t.n.flop(t.fb).q, topo);
  const FaultCone cc = compute_cone(t.n, t.n.flop(t.fc).q, topo);

  const ConeSignature sa = fingerprint_cone(t.n, ca);
  const ConeSignature sb = fingerprint_cone(t.n, cb);
  const ConeSignature sc = fingerprint_cone(t.n, cc);

  EXPECT_TRUE(sa == sb);
  EXPECT_EQ(sa.digest, sb.digest);
  EXPECT_EQ(sa.cone_gates, 1u);
  // Same gate count and border size, different cell kind -> different class.
  EXPECT_FALSE(sa == sc);

  // The border correspondence is positional over the sorted border lists.
  ASSERT_EQ(ca.border_wires.size(), cb.border_wires.size());
  EXPECT_EQ(ca.border_wires[0], t.ena);
  EXPECT_EQ(cb.border_wires[0], t.enb);
}

TEST(IsoFingerprint, PinBindingDistinguishesCones) {
  // Two AND cones whose faulty flop enters at pin 0 vs pin 1: structurally
  // different searches (the faulty_mask differs), so they must not class
  // together even though gate kind, counts and border sizes all match.
  Netlist n;
  const WireId ena = n.add_input("ena");
  const WireId enb = n.add_input("enb");
  const FlopId fa = n.add_flop("fa", false);
  const FlopId fb = n.add_flop("fb", false);
  const FlopId ta = n.add_flop("ta", false);
  const FlopId tb = n.add_flop("tb", false);
  n.connect_flop(ta, n.add_gate_new(Kind::And2, {n.flop(fa).q, ena}, "ka"));
  n.connect_flop(tb, n.add_gate_new(Kind::And2, {enb, n.flop(fb).q}, "kb"));
  n.connect_flop(fa, ena);
  n.connect_flop(fb, enb);
  n.mark_output(n.flop(ta).q);
  n.mark_output(n.flop(tb).q);

  const auto topo = topo_positions(n);
  const ConeSignature sa =
      fingerprint_cone(n, compute_cone(n, n.flop(fa).q, topo));
  const ConeSignature sb =
      fingerprint_cone(n, compute_cone(n, n.flop(fb).q, topo));
  EXPECT_FALSE(sa == sb);
}

TEST(IsoFingerprint, RemapCubeTranslatesByRank) {
  const std::vector<WireId> from = {WireId{2}, WireId{5}, WireId{9}};
  const std::vector<WireId> to = {WireId{11}, WireId{14}, WireId{30}};
  const Cube cube({Literal{WireId{2}, false}, Literal{WireId{9}, true}});
  const Cube mapped = remap_cube(cube, from, to);
  EXPECT_EQ(mapped,
            Cube({Literal{WireId{11}, false}, Literal{WireId{30}, true}}));
  // Rank map is monotone: cube ordering is preserved across translation.
  const Cube other({Literal{WireId{5}, true}});
  EXPECT_EQ(cube < other, mapped < remap_cube(other, from, to));
}

TEST(IsoFingerprint, GroupingClassesTwinWires) {
  const TwinCircuit t = build_twins();
  const std::vector<WireId> wires = {t.n.flop(t.fa).q, t.n.flop(t.fb).q,
                                     t.n.flop(t.fc).q};
  ThreadPool pool(2);
  const IsoGrouping g = group_isomorphic_cones(t.n, wires, pool);
  ASSERT_EQ(g.classes.size(), 2u);
  EXPECT_EQ(g.classes[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(g.classes[1].members, (std::vector<std::size_t>{2}));
  ASSERT_EQ(g.borders.size(), 3u);
  EXPECT_EQ(g.borders[0], (std::vector<WireId>{t.ena}));
  EXPECT_EQ(g.borders[1], (std::vector<WireId>{t.enb}));
}

TEST(MinimalCubeRecorderTest, DropsSupersetsInBothDirections) {
  MinimalCubeRecorder rec;
  const Cube a({Literal{WireId{1}, true}});
  const Cube b({Literal{WireId{2}, true}});
  const Cube c({Literal{WireId{3}, true}});

  // Supersets recorded first are evicted once the subset arrives.
  EXPECT_TRUE(rec.add({0, 1, 2}, a));
  EXPECT_TRUE(rec.add({3, 4}, b));
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_TRUE(rec.add({1, 2}, c)); // subsumes {0,1,2}
  EXPECT_EQ(rec.size(), 2u);

  // Supersets (and duplicates) of kept sets are rejected.
  EXPECT_FALSE(rec.add({1, 2, 5}, a));
  EXPECT_FALSE(rec.add({3, 4}, a));
  EXPECT_EQ(rec.size(), 2u);

  const std::vector<Cube> cubes = rec.take_cubes();
  EXPECT_EQ(cubes, (std::vector<Cube>{b, c}));
  EXPECT_EQ(rec.size(), 0u);
}

TEST(SearchIso, DedupMatchesOracleOnTwins) {
  const TwinCircuit t = build_twins();
  const std::vector<WireId> wires = {t.n.flop(t.fa).q, t.n.flop(t.fb).q,
                                     t.n.flop(t.fc).q};
  SearchParams params;
  params.threads = 2;
  const SearchResult oracle = find_mates_per_wire(t.n, wires, params);
  const SearchResult dedup = find_mates(t.n, wires, params);
  expect_identical(oracle, dedup);
  EXPECT_EQ(oracle.dedup_classes, 3u); // every wire its own class
  EXPECT_EQ(dedup.dedup_classes, 2u);

  // The remapped member MATE mentions *its* border wire, not the rep's.
  bool fb_masked_by_enb = false;
  for (const Mate& m : dedup.set.mates) {
    if (m.cube == Cube({Literal{t.enb, false}})) {
      fb_masked_by_enb =
          std::find(m.masked_wires.begin(), m.masked_wires.end(),
                    t.n.flop(t.fb).q) != m.masked_wires.end();
    }
  }
  EXPECT_TRUE(fb_masked_by_enb);
}

TEST(SearchIso, RandomCircuitsByteIdentical) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    netlist::RandomCircuitSpec spec;
    spec.num_inputs = 6;
    spec.num_flops = 12;
    spec.num_gates = 80;
    spec.allow_xor = (seed % 3 == 0);
    const Netlist n = random_circuit(spec, rng);

    SearchParams params;
    params.threads = 2;
    const std::vector<WireId> wires = all_flop_wires(n);
    const SearchResult oracle = find_mates_per_wire(n, wires, params);
    const SearchResult dedup = find_mates(n, wires, params);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical(oracle, dedup);
    EXPECT_GE(dedup.dedup_classes, 1u);
    EXPECT_LE(dedup.dedup_classes, wires.size());
  }
}

/// One flop whose Q feeds k AND2 gates, each with its own primary-input
/// side input and its own primary output: k paths in k classes, one term
/// each, so the DFS's coverage rows are exactly k bits wide. The only MATE
/// conjoins all k terms, and the DFS reaches it on its k-th candidate; at
/// k = 64 and 128 the last coverage word has no dead bit.
TEST(SearchIso, ClassCountsAtWordBoundaries) {
  for (const std::size_t k : {1, 63, 64, 65, 128}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    Netlist n;
    const FlopId f = n.add_flop("f", false);
    n.connect_flop(f, n.add_input("d"));
    for (std::size_t j = 0; j < k; ++j) {
      const WireId side = n.add_input(strprintf("side%zu", j));
      n.mark_output(n.add_gate_new(Kind::And2, {n.flop(f).q, side},
                                   strprintf("and%zu", j)));
    }
    SearchParams params;
    params.max_terms = static_cast<unsigned>(k);
    params.threads = 1;
    const std::vector<WireId> wires = {n.flop(f).q};
    const SearchResult oracle = find_mates_per_wire(n, wires, params);
    const SearchResult dedup = find_mates(n, wires, params);
    expect_identical(oracle, dedup);
    ASSERT_EQ(dedup.outcomes.size(), 1u);
    EXPECT_EQ(dedup.outcomes[0].num_paths, k);
    EXPECT_EQ(dedup.outcomes[0].candidates_tried, k);
    ASSERT_EQ(dedup.set.mates.size(), 1u);
    EXPECT_EQ(dedup.set.mates[0].cube.size(), k);
  }
}

TEST(SearchIso, GroupTopoOverloadMatchesConvenienceOverload) {
  const TwinCircuit t = build_twins();
  const WireId group[2] = {t.n.flop(t.fa).q, t.n.flop(t.fb).q};
  SearchParams params;
  const GroupOutcome a =
      find_group_mates(t.n, std::span<const WireId>(group, 2), params);
  const GroupOutcome b = find_group_mates(
      t.n, std::span<const WireId>(group, 2), params, topo_positions(t.n));
  EXPECT_EQ(a.wires, b.wires);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cone_gates, b.cone_gates);
  EXPECT_EQ(a.num_paths, b.num_paths);
  EXPECT_EQ(a.candidates_tried, b.candidates_tried);
  EXPECT_EQ(a.mates, b.mates);
}

/// The real cores' two fault populations, the full flop set and the
/// register file. Cone grouping is structural, so each population's class
/// count is fixed by the netlist; the dedup search must equal the per-wire
/// oracle on both, at two sets of search parameters trimmed so the oracle
/// side stays CI-sized. The full flop sets are also searched at the
/// production trim (SearchParams' defaults: depth 14, 100 000 candidates
/// per wire), with the totals pinned.
class SearchIsoCores : public ::testing::Test {
protected:
  /// Totals of a search at the production trim.
  struct Totals {
    std::size_t candidates;
    std::size_t mates;  // pre-merge
    std::size_t merged; // MATEs after the cross-wire merge
    std::size_t unmaskable;
  };

  /// `wires` number `expected_wires` and group into exactly `classes`
  /// isomorphism classes; dedup equals the oracle and reports those
  /// classes. With `production`, also at the production trim, where the
  /// totals must read `*production`.
  static void expect_population(const Netlist& n,
                                const std::vector<WireId>& wires,
                                std::size_t expected_wires,
                                std::size_t classes,
                                const Totals* production = nullptr) {
    ASSERT_EQ(wires.size(), expected_wires);
    ThreadPool pool(2);
    EXPECT_EQ(group_isomorphic_cones(n, wires, pool).classes.size(), classes);
    struct Trim {
      unsigned depth;
      std::size_t candidates;
    };
    for (const Trim trim : {Trim{8, 2000}, Trim{10, 5000}}) {
      SCOPED_TRACE("depth " + std::to_string(trim.depth));
      SearchParams params;
      params.path_depth = trim.depth;
      params.max_candidates_per_wire = trim.candidates;
      const SearchResult oracle = find_mates_per_wire(n, wires, params);
      const SearchResult dedup = find_mates(n, wires, params);
      expect_identical(oracle, dedup);
      EXPECT_EQ(dedup.dedup_classes, classes);
    }
    if (production == nullptr) return;
    SCOPED_TRACE("production trim");
    const SearchParams params;
    ASSERT_EQ(params.path_depth, 14u);
    ASSERT_EQ(params.max_candidates_per_wire, 100000u);
    const SearchResult oracle = find_mates_per_wire(n, wires, params);
    const SearchResult dedup = find_mates(n, wires, params);
    expect_identical(oracle, dedup);
    EXPECT_EQ(dedup.dedup_classes, classes);
    EXPECT_EQ(dedup.total_candidates, production->candidates);
    EXPECT_EQ(dedup.total_mates, production->mates);
    EXPECT_EQ(dedup.set.mates.size(), production->merged);
    EXPECT_EQ(dedup.unmaskable_wires, production->unmaskable);
  }

  static std::vector<WireId> regfile_wires(const Netlist& n,
                                           std::string_view prefix) {
    std::vector<WireId> out;
    for (FlopId f : n.all_flops()) {
      if (n.flop(f).name.starts_with(prefix)) out.push_back(n.flop(f).q);
    }
    return out;
  }
};

TEST_F(SearchIsoCores, AvrFlopSetByteIdentical) {
  const Netlist n = cores::avr::build_avr_core(true).netlist;
  const Totals production{122909, 9548, 1329, 12};
  expect_population(n, all_flop_wires(n), 305, 81, &production);
  expect_population(n, regfile_wires(n, cores::avr::kRegfilePrefix), 256, 32);
}

TEST_F(SearchIsoCores, Msp430FlopSetByteIdentical) {
  const Netlist n = cores::msp430::build_msp430_core(true).netlist;
  const Totals production{7072831, 3795, 373, 0};
  expect_population(n, all_flop_wires(n), 311, 296, &production);
  expect_population(n, regfile_wires(n, cores::msp430::kRegfilePrefix), 224,
                    224);
}

} // namespace
} // namespace ripple::mate
