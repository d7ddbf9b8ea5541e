// Unit tests for src/common: ids, rng, clock, geometry, stats.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"

namespace tota {
namespace {

TEST(NodeIdTest, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(NodeIdTest, ComparesByValue) {
  EXPECT_EQ(NodeId{7}, NodeId{7});
  EXPECT_NE(NodeId{7}, NodeId{8});
  EXPECT_LT(NodeId{7}, NodeId{8});
}

TEST(NodeIdTest, ToString) {
  EXPECT_EQ(to_string(NodeId{42}), "node:42");
}

TEST(TupleUidTest, DefaultIsInvalid) {
  TupleUid uid;
  EXPECT_FALSE(uid.valid());
}

TEST(TupleUidTest, OrderedByOriginThenSequence) {
  const TupleUid a{NodeId{1}, 5};
  const TupleUid b{NodeId{1}, 6};
  const TupleUid c{NodeId{2}, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (TupleUid{NodeId{1}, 5}));
}

TEST(TupleUidTest, HashSpreadsAcrossBuckets) {
  std::unordered_set<TupleUid> uids;
  for (std::uint64_t node = 1; node <= 50; ++node) {
    for (std::uint64_t seq = 0; seq < 20; ++seq) {
      uids.insert(TupleUid{NodeId{node}, seq});
    }
  }
  EXPECT_EQ(uids.size(), 1000u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, StreamIsDeterministic) {
  Rng a = Rng::stream(42, 3);
  Rng b = Rng::stream(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, StreamsAreIndependent) {
  // Distinct streams of the same family never collide early, and a
  // stream differs from the root generator it was derived from.
  Rng root(42);
  Rng s0 = Rng::stream(42, 0);
  Rng s1 = Rng::stream(42, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    const auto x = root();
    const auto y = s0();
    const auto z = s1();
    if (x == y || x == z || y == z) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, StreamDerivationIsPure) {
  // stream() must not consume generator state: deriving stream k is the
  // same whether or not other streams were derived first.  This is what
  // makes per-shard streams independent of shard construction order.
  Rng before = Rng::stream(7, 2);
  (void)Rng::stream(7, 0);
  (void)Rng::stream(7, 1);
  Rng after = Rng::stream(7, 2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(before(), after());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, NormalMeanAndSpread) {
  Rng rng(13);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(15);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.15);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(17);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::from_millis(500);
  const SimTime b = SimTime::from_seconds(1.5);
  EXPECT_EQ((a + b).micros(), 2'000'000);
  EXPECT_EQ((b - a).millis(), 1000.0);
  EXPECT_LT(a, b);
}

TEST(SimTimeTest, Scaling) {
  EXPECT_EQ((SimTime::from_seconds(2) * 0.5).seconds(), 1.0);
}

TEST(Vec2Test, NormAndDistance) {
  EXPECT_DOUBLE_EQ((Vec2{3, 4}).norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(Vec2{0, 0}, Vec2{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq(Vec2{1, 1}, Vec2{2, 2}), 2.0);
}

TEST(Vec2Test, NormalizedZeroIsZero) {
  EXPECT_EQ((Vec2{}).normalized(), (Vec2{}));
  const Vec2 u = Vec2{0, 2}.normalized();
  EXPECT_DOUBLE_EQ(u.norm(), 1.0);
}

TEST(RectTest, ContainsAndClamp) {
  const Rect r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.contains({5, 2}));
  EXPECT_FALSE(r.contains({11, 2}));
  EXPECT_EQ(r.clamp({12, -3}), (Vec2{10, 0}));
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_DOUBLE_EQ(r.height(), 5.0);
}

TEST(SummaryTest, BasicStatistics) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(SummaryTest, QuantileNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(SummaryTest, EmptyIsNaN) {
  Summary s;
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_EQ(s.str(), "n=0");
}

TEST(SeriesTest, CollectsPoints) {
  Series s("line");
  s.add(1, 10);
  s.add(2, 20);
  ASSERT_EQ(s.points().size(), 2u);
  EXPECT_EQ(s.points()[1].y, 20);
  EXPECT_NE(s.str().find("x=2"), std::string::npos);
}

}  // namespace
}  // namespace tota
