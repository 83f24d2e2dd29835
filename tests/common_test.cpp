// Unit tests for the common kernel: ids, Result, RNG, serialization,
// statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"

namespace mv {
namespace {

// ---------------------------------------------------------------- StrongId

TEST(StrongId, DefaultIsInvalid) {
  AvatarId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, AvatarId::invalid());
}

TEST(StrongId, ComparesByValue) {
  AvatarId a(1), b(2), a2(1);
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(StrongId, HashableInUnorderedSet) {
  std::unordered_set<AvatarId> set;
  set.insert(AvatarId(1));
  set.insert(AvatarId(2));
  set.insert(AvatarId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(IdAllocator, Monotonic) {
  IdAllocator<ProposalId> alloc;
  EXPECT_EQ(alloc.next(), ProposalId(0));
  EXPECT_EQ(alloc.next(), ProposalId(1));
  EXPECT_EQ(alloc.issued(), 2u);
}

// ---------------------------------------------------------------- Result

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = make_error("x.y", "boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "x.y");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r = make_error("x.y", "boom");
  EXPECT_THROW((void)r.value(), std::logic_error);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(Status::fail("a", "b").ok());
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, LaplaceMeanZeroScaled) {
  Rng rng(4);
  RunningStats s;
  const double scale = 2.0;
  for (int i = 0; i < 50000; ++i) s.add(rng.laplace(scale));
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  // Var(Laplace(b)) = 2 b^2 = 8
  EXPECT_NEAR(s.variance(), 8.0, 0.6);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(5);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(rng.poisson(3.0));
  for (int i = 0; i < 20000; ++i) large.add(rng.poisson(50.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 50.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, ZipfSkewsTowardLowIndices) {
  Rng rng(7);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(100, 1.2)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 100);  // far above uniform share
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(8);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto idx = rng.sample_indices(100, k);
    EXPECT_EQ(idx.size(), k);
    std::set<std::size_t> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), k);
    for (const auto i : idx) EXPECT_LT(i, 100u);
  }
}

TEST(Rng, ForkIndependent) {
  Rng a(9);
  Rng b = a.fork();
  // The fork and the parent should not produce the same stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// ---------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  const Bytes payload{1, 2, 3};
  w.bytes(payload);

  ByteReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_DOUBLE_EQ(r.f64().value(), 3.14159);
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.bytes().value(), payload);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, TruncatedReadFails) {
  ByteWriter w;
  w.u32(5);
  ByteReader r(w.data());
  EXPECT_TRUE(r.u32().ok());
  auto fail = r.u64();
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, "bytes.truncated");
}

TEST(Bytes, TruncatedStringFails) {
  ByteWriter w;
  w.u32(100);  // declares 100 bytes that are not there
  ByteReader r(w.data());
  EXPECT_FALSE(r.str().ok());
}

TEST(Bytes, HexEncoding) {
  const Bytes data{0x00, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "00ff10");
}

// ---------------------------------------------------------------- clock

TEST(SimClock, AdvancesAndResets) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance();
  clock.advance(10);
  EXPECT_EQ(clock.now(), 11);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, Basic) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(11);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentiles, ExactOnKnownData) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.02);
}

// Regression: add() after a percentile() query used to leave sorted_ set, so
// later queries interpolated over a partially-unsorted vector. Interleave
// adds and queries and check every query against a freshly-built oracle.
TEST(Percentiles, InterleavedAddAndQueryMatchesOracle) {
  Rng rng(77);
  Percentiles p;
  std::vector<double> seen;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(0.0, 100.0);
    p.add(x);
    seen.push_back(x);
    if (i % 7 == 0) {
      Percentiles oracle;
      for (const double s : seen) oracle.add(s);
      for (const double q : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(p.percentile(q), oracle.percentile(q))
            << "after " << seen.size() << " samples, p" << q;
      }
    }
  }
}

// Regression: out-of-range p produced a negative rank cast to size_t (UB /
// out-of-bounds read). Out-of-range queries now clamp to the extremes.
TEST(Percentiles, QueryClampsOutOfRangeP) {
  Percentiles p;
  for (int i = 1; i <= 10; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.percentile(-5.0), p.percentile(0.0));
  EXPECT_DOUBLE_EQ(p.percentile(150.0), p.percentile(100.0));
  EXPECT_DOUBLE_EQ(p.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(p.percentile(150.0), 10.0);
}

TEST(Histogram, BinsInRangeAndCountsOutOfRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // below lo: underflow, not clamped into bin 0
  h.add(50.0);  // at/above hi: overflow, not clamped into bin 9
  h.add(10.0);  // hi itself is exclusive
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.dropped(), 0u);
  EXPECT_EQ(h.sparkline().size() > 0, true);
}

TEST(Histogram, DropsNonFiniteSamples) {
  Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.dropped(), 3u);
  h.add(5.0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.dropped(), 3u);
  // Finite but astronomically out-of-range samples are accounted as
  // under/overflow (they used to be clamped into the edge bins, silently
  // skewing the tails).
  h.add(1e300);
  h.add(-1e300);
  EXPECT_EQ(h.bin_count(9), 0u);
  EXPECT_EQ(h.bin_count(0), 0u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.dropped(), 3u);
}

// Property sweep: RNG uniformity chi-square sanity across seeds.
class RngUniformityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformityTest, ChiSquareWithinBound) {
  Rng rng(GetParam());
  constexpr int kBins = 16;
  constexpr int kDraws = 16000;
  std::array<int, kBins> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBins)];
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 15 dof, 99.9% critical value ~= 37.7
  EXPECT_LT(chi2, 37.7) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngUniformityTest,
                         ::testing::Values(1, 2, 3, 42, 1000, 0xdeadbeef));

}  // namespace
}  // namespace mv
