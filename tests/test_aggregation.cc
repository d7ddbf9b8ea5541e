// Tests for the in-network aggregation subsystem (docs/AGGREGATION.md):
// AggSummary algebra and decay, the wire tuples, the Aggregator folding
// runtime on live worlds, device profiles, and sharded determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "apps/crowd.h"
#include "apps/sensor_fusion.h"
#include "emu/sharded_world.h"
#include "net/device_profile.h"
#include "obs_expect.h"
#include "tuples/aggregator.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;
using tota::testing::recorded;

// --- AggSummary algebra -----------------------------------------------------

TEST(AggSummaryTest, ContributionAndResult) {
  const SimTime t = SimTime::from_millis(10);
  AggSummary s = AggSummary::contribution(4.0, t);
  s.fold(AggSummary::contribution(10.0, t), t, SimTime::zero());
  s.fold(AggSummary::contribution(-2.0, t), t, SimTime::zero());
  EXPECT_EQ(s.result(AggOp::kCount), 3.0);
  EXPECT_EQ(s.result(AggOp::kSum), 12.0);
  EXPECT_EQ(s.result(AggOp::kMin), -2.0);
  EXPECT_EQ(s.result(AggOp::kMax), 10.0);
  EXPECT_EQ(s.result(AggOp::kAvg), 4.0);
}

TEST(AggSummaryTest, EmptySummaryHasNoExtremaOrAverage) {
  const AggSummary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.result(AggOp::kCount), 0.0);
  EXPECT_EQ(s.result(AggOp::kSum), 0.0);
  EXPECT_FALSE(s.result(AggOp::kMin).has_value());
  EXPECT_FALSE(s.result(AggOp::kMax).has_value());
  EXPECT_FALSE(s.result(AggOp::kAvg).has_value());
}

TEST(AggSummaryTest, DecayHalvesExactlyAtEachHalfLife) {
  const SimTime hl = SimTime::from_millis(100);
  // Whole half-lives hit the ldexp fast path: exact powers of two.
  EXPECT_EQ(agg_decay_factor(SimTime::from_millis(100), hl), 0.5);
  EXPECT_EQ(agg_decay_factor(SimTime::from_millis(200), hl), 0.25);
  EXPECT_EQ(agg_decay_factor(SimTime::from_millis(300), hl), 0.125);
  EXPECT_EQ(agg_decay_factor(SimTime::zero(), hl), 1.0);
  // No decay without a half-life.
  EXPECT_EQ(agg_decay_factor(SimTime::from_seconds(999), SimTime::zero()),
            1.0);
}

TEST(AggSummaryTest, DecayIsMonotonicallyNonIncreasing) {
  const SimTime hl = SimTime::from_millis(250);
  double prev = 1.0;
  for (int ms = 0; ms <= 5000; ms += 7) {
    const double k = agg_decay_factor(SimTime::from_millis(ms), hl);
    EXPECT_LE(k, prev) << "decay increased at age " << ms << "ms";
    EXPECT_GE(k, 0.0);
    EXPECT_LE(k, 1.0);
    prev = k;
  }
  EXPECT_LT(prev, 1e-6);  // 20 half-lives is dust
}

TEST(AggSummaryTest, DecayTracksExp2) {
  const SimTime hl = SimTime::from_millis(100);
  for (int ms : {1, 37, 99, 101, 250, 333, 1024, 9999}) {
    const double got = agg_decay_factor(SimTime::from_millis(ms), hl);
    const double want = std::exp2(-static_cast<double>(ms) / 100.0);
    EXPECT_NEAR(got, want, 1e-12 * want) << "age " << ms << "ms";
  }
}

TEST(AggSummaryTest, DecayIsMemoryless) {
  // Decaying in two steps composes to (nearly) the one-step factor, so
  // partial folds at different tree levels commute with time.
  const SimTime hl = SimTime::from_millis(100);
  AggSummary s = AggSummary::contribution(64.0, SimTime::zero());
  const AggSummary stepped =
      s.decayed_to(SimTime::from_millis(130), hl)
          .decayed_to(SimTime::from_millis(470), hl);
  const AggSummary direct = s.decayed_to(SimTime::from_millis(470), hl);
  EXPECT_NEAR(stepped.sum, direct.sum, 1e-12 * direct.sum);
  EXPECT_NEAR(stepped.count, direct.count, 1e-12);
  EXPECT_EQ(stepped.stamp, direct.stamp);
  // Extrema do not decay.
  EXPECT_EQ(stepped.min, 64.0);
  EXPECT_EQ(stepped.max, 64.0);
}

TEST(AggSummaryTest, FoldDecaysBothSidesToNow) {
  const SimTime hl = SimTime::from_millis(100);
  AggSummary a = AggSummary::contribution(8.0, SimTime::zero());
  const AggSummary b =
      AggSummary::contribution(2.0, SimTime::from_millis(100));
  a.fold(b, SimTime::from_millis(200), hl);
  // a decayed two half-lives (8 -> 2), b one (2 -> 1).
  EXPECT_DOUBLE_EQ(a.sum, 3.0);
  EXPECT_DOUBLE_EQ(a.count, 0.25 + 0.5);
  EXPECT_EQ(a.min, 2.0);
  EXPECT_EQ(a.max, 8.0);
}

// --- wire tuples ------------------------------------------------------------

TEST(AggTupleTest, SpecRoundTripsTheWire) {
  register_standard_tuples();
  Pattern contributes = Pattern::of_type(GradientTuple::kTag);
  contributes.eq("name", "sensor-reading").exists("temp");
  AggregationTuple spec("avg-temp", AggOp::kAvg, 3);
  spec.over("temp").matching(contributes).with_half_life(
      SimTime::from_seconds(2));
  spec.set_uid(TupleUid{NodeId{1}, 1});

  wire::Writer w;
  spec.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded_base = Tuple::decode(r);
  const auto* decoded =
      dynamic_cast<const AggregationTuple*>(decoded_base.get());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->op(), AggOp::kAvg);
  EXPECT_EQ(decoded->value_field(), "temp");
  EXPECT_EQ(decoded->half_life(), SimTime::from_seconds(2));
  EXPECT_EQ(decoded->scope(), 3);
  EXPECT_EQ(decoded->name(), "avg-temp");
  ASSERT_TRUE(decoded->predicate().has_value());
  EXPECT_EQ(decoded->predicate()->str(), contributes.str());
}

TEST(AggTupleTest, DefaultsAreCountWithoutFieldOrDecay) {
  const AggregationTuple spec("census", AggOp::kCount);
  EXPECT_EQ(spec.op(), AggOp::kCount);
  EXPECT_EQ(spec.value_field(), "");
  EXPECT_EQ(spec.half_life(), SimTime::zero());
  EXPECT_FALSE(spec.has_predicate());
}

TEST(AggTupleTest, ReportRoundTripsItsSummary) {
  register_standard_tuples();
  AggSummary s = AggSummary::contribution(7.5, SimTime::from_millis(42));
  s.fold(AggSummary::contribution(2.5, SimTime::from_millis(42)),
         SimTime::from_millis(42), SimTime::zero());
  const TupleUid agg(NodeId(9), 1234);
  const auto report =
      AggReportTuple::make(agg, NodeId(5), NodeId(3), 2, s);
  report->set_uid(TupleUid{NodeId{5}, 7});

  wire::Writer w;
  report->encode(w);
  wire::Reader r(w.bytes());
  const auto decoded_base = Tuple::decode(r);
  const auto* decoded =
      dynamic_cast<const AggReportTuple*>(decoded_base.get());
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->agg_uid(), agg);
  EXPECT_EQ(decoded->reporter(), NodeId(5));
  EXPECT_EQ(decoded->via(), NodeId(3));
  EXPECT_EQ(decoded->tree_hop(), 2);
  EXPECT_EQ(decoded->summary(), s);
  EXPECT_FALSE(decoded->maintained());
}

TEST(AggTupleTest, OpNamesRoundTrip) {
  for (AggOp op : {AggOp::kCount, AggOp::kSum, AggOp::kMin, AggOp::kMax,
                   AggOp::kAvg}) {
    EXPECT_EQ(agg_op_from_string(to_string(op)), op);
  }
  EXPECT_FALSE(agg_op_from_string("median").has_value());
}

// --- the folding runtime on live worlds -------------------------------------

emu::ShardedWorld::Options world_options(std::uint64_t seed = 21) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 65.0;
  o.net.seed = seed;
  return o;
}

/// One Aggregator per node, indexed like `ids`.
std::vector<std::unique_ptr<Aggregator>> aggregators_for(
    emu::ShardedWorld& world, const std::vector<NodeId>& ids,
    AggregatorOptions opts = {}) {
  std::vector<std::unique_ptr<Aggregator>> out;
  out.reserve(ids.size());
  for (const NodeId id : ids) {
    out.push_back(std::make_unique<Aggregator>(world.mw(id), opts));
  }
  return out;
}

TEST(AggregatorTest, CountsEverySensorAtTheSink) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(4, 4, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    aggs[i]->set_sensor("census", 1.0);
  }
  aggs[0]->ask(std::make_unique<AggregationTuple>("census", AggOp::kCount));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(aggs[0]->result("census").has_value());
  EXPECT_EQ(*aggs[0]->result("census"), 16.0);
  EXPECT_EQ(aggs[0]->tree_hop("census"), 0);
}

TEST(AggregatorTest, SumsMinMaxAvgOverSensors) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(3, 3, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  double sum = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    aggs[i]->set_sensor("temp", static_cast<double>(i * 3 + 1));
    sum += static_cast<double>(i * 3 + 1);
  }
  aggs[4]->ask(std::make_unique<AggregationTuple>("temp", AggOp::kAvg));
  world.run_for(SimTime::from_seconds(3));
  const auto s = aggs[4]->summary("temp");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->count, 9.0);
  EXPECT_EQ(s->sum, sum);
  EXPECT_EQ(s->min, 1.0);
  EXPECT_EQ(s->max, 25.0);
  EXPECT_EQ(aggs[4]->summary("temp")->result(AggOp::kAvg), sum / 9.0);
}

TEST(AggregatorTest, ScopeBoundsTheCountedRegion) {
  emu::ShardedWorld world(world_options());
  // A 1x7 line: only nodes within 2 hops of the left end contribute.
  const auto ids = world.spawn_grid(1, 7, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  aggs[0]->ask(
      std::make_unique<AggregationTuple>("census", AggOp::kCount, 2));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(aggs[0]->result("census").has_value());
  EXPECT_EQ(*aggs[0]->result("census"), 3.0);  // self + hop1 + hop2
  EXPECT_EQ(aggs[6]->tree_hop("census"), -1);  // outside the field
}

TEST(AggregatorTest, SensorChangeReFoldsIncrementally) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 5, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("load", 2.0);
  aggs[0]->ask(std::make_unique<AggregationTuple>("load", AggOp::kSum));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_EQ(aggs[0]->result("load"), 10.0);

  aggs[4]->set_sensor("load", 7.0);  // far end changes
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(aggs[0]->result("load"), 15.0);

  aggs[2]->clear_sensor("load");  // middle goes quiet
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(aggs[0]->result("load"), 13.0);
}

TEST(AggregatorTest, ContributionPatternFoldsMatchingTuples) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(3, 3, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  // Each node keeps one local "reading" tuple; nothing calls set_sensor.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto reading = std::make_unique<GradientTuple>("reading", 0);
    reading->content().set("val", static_cast<double>(10 * (i + 1)));
    world.mw(ids[i]).inject(std::move(reading));
  }
  Pattern readings = Pattern::of_type(GradientTuple::kTag);
  readings.eq("name", "reading").exists("val");
  auto spec = std::make_unique<AggregationTuple>("readings", AggOp::kSum);
  spec->over("val").matching(readings);
  aggs[8]->ask(std::move(spec));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(aggs[8]->result("readings").has_value());
  EXPECT_EQ(*aggs[8]->result("readings"), 450.0);  // 10+20+...+90
}

TEST(AggregatorTest, ContributorDeathDropsOutOfTheCount) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 4, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  aggs[0]->ask(std::make_unique<AggregationTuple>("census", AggOp::kCount));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_EQ(aggs[0]->result("census"), 4.0);

  aggs[3].reset();         // the far leaf's runtime dies with its node
  world.despawn(ids[3]);   // link loss -> neighbour-down at ids[2]
  world.run_for(SimTime::from_seconds(3));
  EXPECT_EQ(aggs[0]->result("census"), 3.0);
}

TEST(AggregatorTest, MovedNodeReattachesAndKeepsTheCountRight) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 5, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  aggs[0]->ask(std::make_unique<AggregationTuple>("census", AggOp::kCount));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_EQ(aggs[0]->result("census"), 5.0);

  // The far-end node walks to the other side of the sink: its old parent
  // loses it, it re-enters the tree at hop 1, and the census survives.
  world.net().move_node(ids[4], {-50.0, 0.0});
  world.run_for(SimTime::from_seconds(5));
  EXPECT_EQ(aggs[0]->result("census"), 5.0);
  EXPECT_EQ(aggs[4]->tree_hop("census"), 1);
}

TEST(AggregatorTest, RetractedAggregationTearsDownState) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 3, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  aggs[0]->ask(std::make_unique<AggregationTuple>("census", AggOp::kCount));
  world.run_for(SimTime::from_seconds(3));
  ASSERT_EQ(aggs[1]->active(), 1u);

  // Taking the replica locally retracts this node's membership (the
  // paper's local `delete`; replicas elsewhere are untouched).
  world.mw(ids[1]).take(Pattern::of_type(AggregationTuple::kTag));
  world.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(aggs[1]->active(), 0u);
  EXPECT_EQ(aggs[1]->tree_hop("census"), -1);
}

TEST(AggregatorTest, DecayForgetsStaleContributions) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 3, 50.0);
  world.run_for(SimTime::from_seconds(1));
  auto aggs = aggregators_for(world, ids);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  auto spec = std::make_unique<AggregationTuple>("census", AggOp::kCount);
  spec->with_half_life(SimTime::from_millis(500));
  aggs[0]->ask(std::move(spec));
  world.run_for(SimTime::from_seconds(1));
  ASSERT_TRUE(aggs[0]->result("census").has_value());
  // The three contributions are already ~2 half-lives old by the time
  // the tree converges, but clearly still visible...
  const double fresh = *aggs[0]->result("census");
  EXPECT_GT(fresh, 0.4);
  EXPECT_LE(fresh, 3.0);

  // ...and nobody refreshes a sensor, so many half-lives later the
  // count is dust and the prune tick has discarded the corpses.
  world.run_for(SimTime::from_seconds(7));
  const double stale = *aggs[0]->result("census");
  EXPECT_LT(stale, 0.01);
  EXPECT_GE(world.metrics().get("agg.prune"), recorded(1));
}

TEST(AggregatorTest, RefreshOnTickKeepsDecayedCountAlive) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 3, 50.0);
  world.run_for(SimTime::from_seconds(1));
  AggregatorOptions opts;
  opts.refresh_on_tick = true;
  auto aggs = aggregators_for(world, ids, opts);
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  auto spec = std::make_unique<AggregationTuple>("census", AggOp::kCount);
  spec->with_half_life(SimTime::from_seconds(2));
  aggs[0]->ask(std::move(spec));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_TRUE(aggs[0]->result("census").has_value());

  // Sensors keep being refreshed each tick, so the folded count hovers
  // near 3 instead of halving every 2 s.
  for (int i = 0; i < 8; ++i) {
    for (auto& a : aggs) a->set_sensor("census", 1.0);
    world.run_for(SimTime::from_millis(500));
  }
  EXPECT_GT(*aggs[0]->result("census"), 2.0);
}

// --- the scenario apps ------------------------------------------------------

TEST(CrowdDensityTest, KioskCountsEachVisitorOnce) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(3, 4, 50.0);
  world.run_for(SimTime::from_seconds(1));
  std::vector<std::unique_ptr<apps::CrowdDensity>> census;
  for (const NodeId id : ids) {
    census.push_back(std::make_unique<apps::CrowdDensity>(world.mw(id)));
  }
  // Three visitors announce presence (scope-2 fields overlap heavily —
  // the hopcount==0 contribution pattern still counts each once).
  std::vector<std::unique_ptr<apps::CrowdNavigator>> visitors;
  apps::CrowdNavParams p;
  p.destination = "exhibit";
  for (const std::size_t i : {5u, 6u, 9u}) {
    visitors.push_back(std::make_unique<apps::CrowdNavigator>(
        world.mw(ids[i]), p, [](Vec2) {}));
    visitors.back()->start();
  }
  world.run_for(SimTime::from_seconds(2));
  census[0]->measure();
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(census[0]->density().has_value());
  EXPECT_EQ(*census[0]->density(), 3.0);
}

TEST(SensorFusionTest, AverageTemperatureWithinThreeHops) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 6, 50.0);
  world.run_for(SimTime::from_seconds(1));
  std::vector<std::unique_ptr<apps::SensorFusion>> fusion;
  for (const NodeId id : ids) {
    fusion.push_back(std::make_unique<apps::SensorFusion>(world.mw(id)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    fusion[i]->publish_reading(20.0 + static_cast<double>(i));
  }
  fusion[0]->query_average(3);
  world.run_for(SimTime::from_seconds(3));
  const auto avg = fusion[0]->average();
  ASSERT_TRUE(avg.has_value());
  // Nodes 0..3 are in scope: (20+21+22+23)/4.
  EXPECT_DOUBLE_EQ(*avg, 21.5);

  fusion[2]->publish_reading(30.0);  // re-published reading replaces
  world.run_for(SimTime::from_seconds(2));
  EXPECT_DOUBLE_EQ(*fusion[0]->average(), (20.0 + 21.0 + 30.0 + 23.0) / 4);
}

// --- device profiles --------------------------------------------------------

TEST(DeviceProfileTest, AwakeWindowFollowsDutyCycle) {
  net::DeviceProfile p;
  p.duty_cycle = 0.25;
  EXPECT_FALSE(p.always_awake());
  EXPECT_TRUE(p.awake_at(SimTime::zero()));
  EXPECT_TRUE(p.awake_at(SimTime::from_millis(24)));
  EXPECT_FALSE(p.awake_at(SimTime::from_millis(25)));
  EXPECT_FALSE(p.awake_at(SimTime::from_millis(99)));
  EXPECT_TRUE(p.awake_at(SimTime::from_millis(100)));  // next period
  // Full duty cycle and gateways never sleep.
  net::DeviceProfile d;
  EXPECT_TRUE(d.always_awake());
  EXPECT_TRUE(d.is_default());
  net::DeviceProfile g;
  g.duty_cycle = 0.0;
  g.gateway = true;
  EXPECT_TRUE(g.always_awake());
  EXPECT_TRUE(g.awake_at(SimTime::from_millis(50)));
}

TEST(DeviceProfileTest, LinkMtuIsTheTighterEndpoint) {
  net::DeviceProfile small;
  small.mtu = 128;
  net::DeviceProfile big;
  big.mtu = 1024;
  const net::DeviceProfile uncapped;
  EXPECT_EQ(net::DeviceProfile::link_mtu(small, big), 128u);
  EXPECT_EQ(net::DeviceProfile::link_mtu(big, small), 128u);
  EXPECT_EQ(net::DeviceProfile::link_mtu(small, uncapped), 128u);
  EXPECT_EQ(net::DeviceProfile::link_mtu(uncapped, uncapped), 0u);
  // A gateway's radio is not the bottleneck even if an mtu is set.
  net::DeviceProfile gw;
  gw.mtu = 64;
  gw.gateway = true;
  EXPECT_EQ(gw.effective_mtu(), 0u);
  EXPECT_EQ(net::DeviceProfile::link_mtu(gw, big), 1024u);
}

TEST(DeviceProfileSimTest, TinyMtuDropsFramesAndCounts) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 2, 50.0);
  net::DeviceProfile constrained;
  constrained.mtu = 8;  // nothing real fits in 8 bytes
  world.set_profile(ids[1], constrained);
  world.run_for(SimTime::from_seconds(1));
  world.mw(ids[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(2));
  EXPECT_TRUE(world.mw(ids[1]).read(Pattern::of_type(GradientTuple::kTag))
                  .empty());
  EXPECT_GE(world.metrics().get("net.mtu_drop"), recorded(1));
}

TEST(DeviceProfileSimTest, SleepingReceiverMissesFramesAndCounts) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(1, 2, 50.0);
  net::DeviceProfile sleepy;
  sleepy.duty_cycle = 0.0;  // never awake
  world.set_profile(ids[1], sleepy);
  world.run_for(SimTime::from_seconds(1));
  world.mw(ids[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(2));
  EXPECT_GE(world.metrics().get("net.duty_drop"), recorded(1));
  EXPECT_TRUE(world.mw(ids[1]).read(Pattern::of_type(GradientTuple::kTag))
                  .empty());
}

TEST(DeviceProfileSimTest, ProfilesOffKeepsCountersAtZero) {
  emu::ShardedWorld world(world_options());
  const auto ids = world.spawn_grid(2, 2, 50.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(ids[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(world.metrics().get("net.mtu_drop"), 0);
  EXPECT_EQ(world.metrics().get("net.duty_drop"), 0);
}

TEST(DeviceProfileSimTest, UnknownNodeProfileThrows) {
  emu::ShardedWorld world(world_options());
  (void)world.spawn_grid(1, 2, 50.0);
  EXPECT_THROW(world.set_profile(NodeId(9999), net::DeviceProfile{}),
               std::invalid_argument);
}

// --- sharded worlds ---------------------------------------------------------

double sharded_census(std::uint32_t shards) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 65.0;
  o.net.seed = 33;
  o.net.shards = shards;
  emu::ShardedWorld world(o);
  const auto ids = world.spawn_grid(4, 4, 50.0);
  world.seal();
  std::vector<std::unique_ptr<Aggregator>> aggs;
  for (const NodeId id : ids) {
    aggs.push_back(std::make_unique<Aggregator>(world.mw(id)));
  }
  world.run_for(SimTime::from_seconds(1));
  for (auto& a : aggs) a->set_sensor("census", 1.0);
  aggs[0]->ask(std::make_unique<AggregationTuple>("census", AggOp::kCount));
  world.run_for(SimTime::from_seconds(4));
  const auto r = aggs[0]->result("census");
  return r.value_or(-1.0);
}

TEST(ShardedAggregationTest, CensusIsExactAndShardCountInvariant) {
  EXPECT_EQ(sharded_census(1), 16.0);
  EXPECT_EQ(sharded_census(2), 16.0);
  EXPECT_EQ(sharded_census(4), 16.0);
}

}  // namespace
}  // namespace tota
