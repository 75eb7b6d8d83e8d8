#include <gtest/gtest.h>

#include <set>

#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ripple {
namespace {

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_FALSE(v.get(0));
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, InitialValueTrue) {
  BitVec v(70, true);
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_TRUE(v.get(69));
}

TEST(BitVec, EqualityIgnoresTailBits) {
  BitVec a(3);
  BitVec b(3, true);
  b.set(0, false);
  b.set(1, false);
  b.set(2, false);
  EXPECT_EQ(a, b);
}

TEST(BitVec, OrAndXor) {
  BitVec a(100);
  BitVec b(100);
  a.set(1, true);
  a.set(70, true);
  b.set(70, true);
  b.set(99, true);
  BitVec o = a;
  o |= b;
  EXPECT_EQ(o.popcount(), 3u);
  BitVec n = a;
  n &= b;
  EXPECT_EQ(n.popcount(), 1u);
  EXPECT_TRUE(n.get(70));
  BitVec x = a;
  x ^= b;
  EXPECT_EQ(x.popcount(), 2u);
}

TEST(BitVec, FirstDifference) {
  BitVec a(200);
  BitVec b(200);
  EXPECT_EQ(a.first_difference(b), 200u);
  b.set(131, true);
  EXPECT_EQ(a.first_difference(b), 131u);
}

TEST(BitVec, ResizeGrowWithValue) {
  BitVec v(10);
  v.resize(80, true);
  EXPECT_FALSE(v.get(9));
  EXPECT_TRUE(v.get(10));
  EXPECT_TRUE(v.get(79));
}

TEST(BitVecWordOps, MatchBitwiseDefinitions) {
  Rng rng(13);
  for (const std::size_t bits : {1u, 64u, 65u, 200u}) {
    BitVec a(bits), b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.next_bool()) a.set(i, true);
      if (rng.next_bool()) b.set(i, true);
    }
    std::size_t expect_and = 0, expect_or = 0, expect_new = 0;
    bool subset = true;
    for (std::size_t i = 0; i < bits; ++i) {
      expect_and += a.get(i) && b.get(i) ? 1 : 0;
      expect_or += a.get(i) || b.get(i) ? 1 : 0;
      expect_new += !a.get(i) && b.get(i) ? 1 : 0;
      if (a.get(i) && !b.get(i)) subset = false;
    }
    EXPECT_EQ(a.popcount_and(b), expect_and);
    EXPECT_EQ(a.popcount_or(b), expect_or);
    EXPECT_EQ(a.is_subset_of(b), subset);

    BitVec or_acc = a;
    EXPECT_EQ(or_acc.or_count(b), expect_new); // newly set bits
    EXPECT_EQ(or_acc.popcount(), expect_or);   // and the OR result itself
    EXPECT_EQ(or_acc.or_count(b), 0u);         // second OR adds nothing

    BitVec diff = a;
    diff.and_not(b);
    for (std::size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(diff.get(i), a.get(i) && !b.get(i));
    }
  }
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u) << "all values should appear in 1000 draws";
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  ab c \t\n"), "ab c");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  add\tr1,  r2 ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "add");
  EXPECT_EQ(parts[2], "r2");
}

TEST(Strings, ParseIntBases) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("0x1f").value(), 31);
  EXPECT_EQ(parse_int("0b101").value(), 5);
  EXPECT_EQ(parse_int("$ff").value(), 255);
  EXPECT_EQ(parse_int("%110").value(), 6);
  EXPECT_EQ(parse_int("1_000").value(), 1000);
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("0x").has_value());
  EXPECT_FALSE(parse_int("12z").has_value());
  EXPECT_FALSE(parse_int("0b2").has_value());
}

TEST(Strings, Identifier) {
  EXPECT_TRUE(is_identifier("abc_1"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(Stats, MeanMedianStddev) {
  const std::vector<int> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  const std::vector<int> odd = {5, 1, 9};
  EXPECT_DOUBLE_EQ(median(odd), 5.0);
  EXPECT_NEAR(stddev(v), 1.118, 1e-3);
  EXPECT_DOUBLE_EQ(mean(std::vector<int>{}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"b", "1234"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1234"), std::string::npos);
  EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(Table, CsvSkipsSeparators) {
  TablePrinter t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_separator();
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowArityChecked) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableFormat, Percent) { EXPECT_EQ(fmt_percent(0.0715), "7.15 %"); }

TEST(TableFormat, CountGrouping) {
  EXPECT_EQ(fmt_count(24536), "24 536");
  EXPECT_EQ(fmt_count(123), "123");
  EXPECT_EQ(fmt_count(1234567), "1 234 567");
}

TEST(TableFormat, Sci) { EXPECT_EQ(fmt_sci(3.2e7), "3*10^7"); }

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_index(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_index(
                   10,
                   [&](std::size_t i) {
                     if (i == 5) throw Error("boom");
                   }),
               Error);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for_index(0, [&](std::size_t) { FAIL(); });
}

TEST(Assert, CheckThrowsErrorWithMessage) {
  try {
    RIPPLE_CHECK(false, "context ", 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Assert, AssertThrowsInternalError) {
  EXPECT_THROW(RIPPLE_ASSERT(1 == 2), InternalError);
}

} // namespace
} // namespace ripple
