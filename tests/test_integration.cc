// Integration tests: full multi-node scenarios through the simulator,
// exercising middleware, serialization, propagation and events together.
#include <gtest/gtest.h>

#include "emu/render.h"
#include "emu/sharded_world.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

emu::ShardedWorld::Options grid_options(std::uint64_t seed = 42) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = seed;
  return o;
}

int hopcount_at(const emu::ShardedWorld& world, NodeId node,
                const Pattern& p) {
  const auto replica = world.mw(node).read_one(p);
  if (!replica) return -1;
  return static_cast<int>(replica->content().at("hopcount").as_int());
}

TEST(IntegrationTest, GradientMatchesBfsDistanceOnGrid) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(4, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));

  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(3));

  const auto oracle = world.net().topology().hop_distances(nodes[0]);
  const Pattern p = Pattern::of_type(GradientTuple::kTag);
  for (const NodeId n : nodes) {
    EXPECT_EQ(hopcount_at(world, n, p), oracle.at(n)) << to_string(n);
  }
}

TEST(IntegrationTest, ScopeLimitsTheExpandingRing) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(1, 8, 80.0);  // a line
  world.run_for(SimTime::from_seconds(1));

  world.mw(nodes[0]).inject(
      std::make_unique<GradientTuple>("ring", /*scope=*/3));
  world.run_for(SimTime::from_seconds(3));

  const Pattern p = Pattern::of_type(GradientTuple::kTag);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i <= 3) {
      EXPECT_EQ(hopcount_at(world, nodes[i], p), static_cast<int>(i));
    } else {
      EXPECT_EQ(world.mw(nodes[i]).read(p).size(), 0u) << i;
    }
  }
}

TEST(IntegrationTest, MessageDeliveredAlongGradient) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(3, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));

  const NodeId dest = nodes.back();
  const NodeId src = nodes.front();

  // Destination lays its structure; sender routes along it.
  world.mw(dest).inject(std::make_unique<GradientTuple>("structure"));
  world.run_for(SimTime::from_seconds(2));

  std::string received;
  world.mw(dest).subscribe(
      Pattern::of_type(MessageTuple::kTag),
      [&](const Event& event) {
        received = static_cast<const MessageTuple&>(*event.tuple).payload();
      },
      static_cast<int>(EventKind::kTupleArrived));

  world.mw(src).inject(
      std::make_unique<MessageTuple>(dest, "hello tota", "structure"));
  world.run_for(SimTime::from_seconds(2));

  EXPECT_EQ(received, "hello tota");
  // The message replica rests in the destination's space.
  EXPECT_EQ(world.mw(dest).read(Pattern::of_type(MessageTuple::kTag)).size(),
            1u);
}

TEST(IntegrationTest, GradientRoutingCheaperThanFlooding) {
  // Same message, with and without a routing structure: descending the
  // gradient confines relaying to the cone of strictly-decreasing
  // hopcount (Poor's gradient routing), which for same-row endpoints on
  // a grid is a thin strip — far fewer transmissions than flooding.
  auto run = [](bool with_structure) {
    emu::ShardedWorld world(grid_options());
    const auto nodes = world.spawn_grid(3, 8, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const NodeId src = nodes[0];   // row 0, col 0
    const NodeId dest = nodes[7];  // row 0, col 7 — same row
    if (with_structure) {
      world.mw(dest).inject(std::make_unique<GradientTuple>("structure"));
      world.run_for(SimTime::from_seconds(2));
    }
    const auto before = world.metrics().get("radio.tx");
    world.mw(src).inject(
        std::make_unique<MessageTuple>(dest, "m", "structure"));
    world.run_for(SimTime::from_seconds(2));
    return world.metrics().get("radio.tx") - before;
  };
  const auto routed = run(true);
  const auto flooded = run(false);
  EXPECT_LT(routed, flooded / 2) << "routed=" << routed
                                 << " flooded=" << flooded;
}

TEST(IntegrationTest, LateJoinerReceivesExistingStructures) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(1, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(2));

  // A node appears next to the end of the line, after propagation ended.
  const NodeId late = world.spawn({4 * 80.0, 0});
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(hopcount_at(world, late, Pattern::of_type(GradientTuple::kTag)),
            4);
}

TEST(IntegrationTest, DisconnectedComponentNeverHearsTuple) {
  emu::ShardedWorld world(grid_options());
  const NodeId a = world.spawn({0, 0});
  const NodeId b = world.spawn({50, 0});
  const NodeId island = world.spawn({1000, 1000});
  world.run_for(SimTime::from_seconds(1));
  world.mw(a).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(world.mw(b).read(Pattern{}).size(), 1u);
  EXPECT_EQ(world.mw(island).read(Pattern{}).size(), 0u);
}

TEST(IntegrationTest, SpaceTupleStaysWithinMetricRadius) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(1, 8, 80.0);  // line, 80 m spacing
  world.run_for(SimTime::from_seconds(1));
  world.mw(nodes[0]).inject(
      std::make_unique<SpaceTuple>("zone", /*radius_m=*/200.0));
  world.run_for(SimTime::from_seconds(2));
  const Pattern p = Pattern::of_type(SpaceTuple::kTag);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const bool inside = 80.0 * static_cast<double>(i) <= 200.0;
    EXPECT_EQ(!world.mw(nodes[i]).read(p).empty(), inside) << i;
  }
}

TEST(IntegrationTest, DirectionTupleReachesOnlyTheSector) {
  emu::ShardedWorld world(grid_options());
  // A plus-shaped deployment around the origin.
  const NodeId center = world.spawn({0, 0});
  const NodeId east1 = world.spawn({80, 0});
  const NodeId east2 = world.spawn({160, 0});
  const NodeId north1 = world.spawn({0, 80});
  const NodeId north2 = world.spawn({0, 160});
  world.run_for(SimTime::from_seconds(1));

  world.mw(center).inject(std::make_unique<DirectionTuple>(
      "beam", Vec2{1, 0}, 3.14159265 / 6.0));
  world.run_for(SimTime::from_seconds(2));

  const Pattern p = Pattern::of_type(DirectionTuple::kTag);
  EXPECT_FALSE(world.mw(east1).read(p).empty());
  EXPECT_FALSE(world.mw(east2).read(p).empty());
  // First hop is exempt (the sector needs a base)…
  EXPECT_FALSE(world.mw(north1).read(p).empty());
  // …but the second northern node is clearly outside the beam.
  EXPECT_TRUE(world.mw(north2).read(p).empty());
}

TEST(IntegrationTest, ModifierDeletesAcrossTheNetwork) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(2, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("obsolete"));
  world.run_for(SimTime::from_seconds(2));

  // Everyone holds the field; now delete it everywhere (the paper's
  // distributed-delete idiom).
  world.mw(nodes[3]).inject(std::make_unique<ModifierTuple>(
      GradientTuple::kTag,
      std::vector<std::pair<std::string, wire::Value>>{
          {"name", wire::Value{"obsolete"}}}));
  world.run_for(SimTime::from_seconds(2));

  for (const NodeId n : nodes) {
    EXPECT_TRUE(world.mw(n).read(Pattern::of_type(GradientTuple::kTag)).empty())
        << to_string(n);
  }
}

TEST(IntegrationTest, PresenceEventsReportNeighborhoodChanges) {
  emu::ShardedWorld world(grid_options());
  const NodeId a = world.spawn({0, 0});
  int ups = 0;
  int downs = 0;
  world.mw(a).subscribe(
      Pattern::of_type(PresenceTuple::kTag).eq("event", "up"),
      [&](const Event&) { ++ups; });
  world.mw(a).subscribe(
      Pattern::of_type(PresenceTuple::kTag).eq("event", "down"),
      [&](const Event&) { ++downs; });

  const NodeId b = world.spawn({50, 0});
  world.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(ups, 1);
  world.despawn(b);
  world.run_for(SimTime::from_seconds(1));
  EXPECT_EQ(downs, 1);
}

TEST(IntegrationTest, ConcurrentFieldsFromManySources) {
  emu::ShardedWorld world(grid_options());
  const auto nodes = world.spawn_grid(3, 3, 80.0);
  world.run_for(SimTime::from_seconds(1));
  for (const NodeId n : nodes) {
    world.mw(n).inject(std::make_unique<GradientTuple>("field"));
  }
  world.run_for(SimTime::from_seconds(3));

  // Every node holds one replica per source, each with the right distance.
  for (const NodeId n : nodes) {
    const auto replicas =
        world.mw(n).read(Pattern::of_type(GradientTuple::kTag));
    EXPECT_EQ(replicas.size(), nodes.size());
    for (const auto& r : replicas) {
      const auto src = r->content().at("source").as_node();
      const auto expected = world.net().topology().hop_distance(src, n);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(r->content().at("hopcount").as_int(), *expected);
    }
  }
}

TEST(IntegrationTest, LossyRadioStillConverges) {
  auto o = grid_options();
  o.net.radio.loss_probability = 0.3;
  emu::ShardedWorld world(o);
  const auto nodes = world.spawn_grid(3, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("field"));
  // Loss drops some frames, but link-up re-propagation plus multiple
  // paths still spread the field; give it extra rounds via a node join.
  world.run_for(SimTime::from_seconds(2));
  const NodeId nudge = world.spawn({-80, 0});
  (void)nudge;
  world.run_for(SimTime::from_seconds(4));

  int holders = 0;
  for (const NodeId n : nodes) {
    if (!world.mw(n).read(Pattern::of_type(GradientTuple::kTag)).empty()) {
      ++holders;
    }
  }
  EXPECT_GE(holders, static_cast<int>(nodes.size()) - 2);
}

TEST(IntegrationTest, AsciiMapShowsNodes) {
  emu::ShardedWorld world(grid_options());
  world.spawn_grid(2, 2, 80.0);
  const std::string map = emu::ascii_map(
      world.net().topology(), Rect{{-10, -10}, {100, 100}}, 20, 10);
  int stars = 0;
  for (const char c : map) {
    if (c == '*') ++stars;
  }
  EXPECT_EQ(stars, 4);
}

TEST(IntegrationTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    emu::ShardedWorld world(grid_options(7));
    const auto nodes = world.spawn_grid(3, 3, 80.0);
    world.run_for(SimTime::from_seconds(1));
    world.mw(nodes[4]).inject(std::make_unique<GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(2));
    return world.metrics().get("radio.tx");
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tota
