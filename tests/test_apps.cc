// Tests for the application layer (paper §5) and the baselines.
#include <gtest/gtest.h>

#include "apps/flocking.h"
#include "apps/gathering.h"
#include "apps/meeting.h"
#include "apps/routing.h"
#include "baseline/flood_routing.h"
#include "baseline/local_space.h"
#include "emu/sharded_world.h"

namespace tota {
namespace {

emu::ShardedWorld::Options options(std::uint64_t seed = 21) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = seed;
  return o;
}

TEST(RoutingServiceTest, DeliversAlongAdvertisedStructure) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));

  std::vector<std::pair<NodeId, std::string>> inbox;
  apps::RoutingService dest(world.mw(grid.back()),
                            [&](NodeId from, const std::string& payload) {
                              inbox.emplace_back(from, payload);
                            });
  dest.advertise();
  world.run_for(SimTime::from_seconds(2));

  apps::RoutingService src(world.mw(grid.front()), nullptr);
  // Each hop draws its own radio jitter, so "second" leaves after the
  // whole path's worst-case jitter: separated sends arrive in order.
  src.send(grid.back(), "first");
  world.run_for(SimTime::from_millis(50));
  src.send(grid.back(), "second");
  world.run_for(SimTime::from_seconds(2));

  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].first, grid.front());
  EXPECT_EQ(inbox[0].second, "first");
  EXPECT_EQ(inbox[1].second, "second");
  EXPECT_EQ(dest.delivered(), 2u);
  EXPECT_EQ(src.sent(), 2u);
}

TEST(RoutingServiceTest, DeliversByFloodingWithoutStructure) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(2, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));

  int delivered = 0;
  apps::RoutingService dest(world.mw(grid.back()),
                            [&](NodeId, const std::string&) { ++delivered; });
  // No advertise(): the paper's degenerate flooding case must still work.
  apps::RoutingService src(world.mw(grid.front()), nullptr);
  src.send(grid.back(), "flooded");
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(delivered, 1);
}

TEST(RoutingServiceTest, SurvivesRelayChurnMidStream) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  int delivered = 0;
  apps::RoutingService dest(world.mw(grid.back()),
                            [&](NodeId, const std::string&) { ++delivered; });
  dest.advertise();
  world.run_for(SimTime::from_seconds(2));
  apps::RoutingService src(world.mw(grid.front()), nullptr);

  src.send(grid.back(), "one");
  world.run_for(SimTime::from_seconds(1));
  world.despawn(grid[5]);  // interior relay dies
  world.run_for(SimTime::from_seconds(3));  // structure repairs
  src.send(grid.back(), "two");
  world.run_for(SimTime::from_seconds(2));
  EXPECT_EQ(delivered, 2);
}

TEST(FloodRoutingBaselineTest, DeliversButCostsMore) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(4, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));

  int flood_delivered = 0;
  baseline::FloodRoutingService dest(
      world.mw(grid.back()),
      [&](NodeId, const std::string&) { ++flood_delivered; });
  baseline::FloodRoutingService src(world.mw(grid.front()), nullptr);

  const auto before = world.metrics().get("radio.tx");
  src.send(grid.back(), "x");
  world.run_for(SimTime::from_seconds(2));
  const auto flood_cost = world.metrics().get("radio.tx") - before;

  EXPECT_EQ(flood_delivered, 1);
  // Flooding a 16-node network costs at least one transmission per node.
  EXPECT_GE(flood_cost, 15);
}

TEST(GatheringTest, ProactiveAdvertReachesEveryone) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 3, 80.0);
  world.run_for(SimTime::from_seconds(1));

  apps::InfoProvider provider(world.mw(grid[0]), "temperature");
  provider.advertise();
  world.run_for(SimTime::from_seconds(2));

  apps::InfoSeeker seeker(world.mw(grid.back()));
  const auto adverts = seeker.local_adverts();
  ASSERT_EQ(adverts.size(), 1u);
  EXPECT_EQ(adverts[0].description, "temperature");
  EXPECT_EQ(adverts[0].distance_hops,
            *world.net().topology().hop_distance(grid[0], grid.back()));
  EXPECT_EQ(adverts[0].location, world.net().position(grid[0]));

  EXPECT_TRUE(seeker.find_advert("temperature").has_value());
  EXPECT_FALSE(seeker.find_advert("humidity").has_value());
}

TEST(GatheringTest, ReactiveQueryGetsAnswer) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 3, 80.0);
  world.run_for(SimTime::from_seconds(1));

  apps::InfoProvider provider(world.mw(grid[8]), "temperature");
  provider.answer_queries([] { return "21C"; });

  apps::InfoSeeker seeker(world.mw(grid[0]));
  std::vector<std::string> answers;
  seeker.query("temperature",
               [&](const std::string& a) { answers.push_back(a); });
  world.run_for(SimTime::from_seconds(3));

  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], "21C");
  EXPECT_EQ(provider.queries_answered(), 1u);
  EXPECT_EQ(seeker.answers_received(), 1u);
}

TEST(GatheringTest, MultipleProvidersAllAnswer) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 3, 80.0);
  world.run_for(SimTime::from_seconds(1));

  apps::InfoProvider p1(world.mw(grid[2]), "gas station");
  apps::InfoProvider p2(world.mw(grid[6]), "gas station");
  p1.answer_queries([] { return "station A"; });
  p2.answer_queries([] { return "station B"; });

  apps::InfoSeeker seeker(world.mw(grid[0]));
  std::set<std::string> answers;
  seeker.query("gas station",
               [&](const std::string& a) { answers.insert(a); });
  world.run_for(SimTime::from_seconds(3));
  EXPECT_EQ(answers, (std::set<std::string>{"station A", "station B"}));
}

TEST(GatheringTest, ScopedQueryOnlyReachesTheRing) {
  emu::ShardedWorld world(options());
  const auto line = world.spawn_grid(1, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));

  apps::InfoProvider near(world.mw(line[2]), "info");
  apps::InfoProvider far(world.mw(line[5]), "info");
  near.answer_queries([] { return "near"; });
  far.answer_queries([] { return "far"; });

  apps::InfoSeeker seeker(world.mw(line[0]));
  std::set<std::string> answers;
  seeker.query("info", [&](const std::string& a) { answers.insert(a); },
               /*scope=*/3);
  world.run_for(SimTime::from_seconds(3));
  EXPECT_EQ(answers, (std::set<std::string>{"near"}));
}

TEST(LocalSpaceBaselineTest, SharedDataIsStrictlyLocal) {
  emu::ShardedWorld world(options());
  const auto line = world.spawn_grid(1, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));

  baseline::LocalSpace owner(world.mw(line[0]));
  owner.share("song", wire::Value{"track.mp3"});
  world.run_for(SimTime::from_seconds(2));

  baseline::LocalSpace direct(world.mw(line[1]));
  baseline::LocalSpace remote(world.mw(line[3]));
  EXPECT_TRUE(direct.lookup("song").has_value());
  EXPECT_FALSE(remote.lookup("song").has_value());  // the Lime limitation
  ASSERT_EQ(direct.visible().size(), 1u);
  EXPECT_EQ(direct.visible()[0].owner, line[0]);
}

TEST(LocalSpaceBaselineTest, EngagementFollowsConnectivity) {
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({0, 0});
  const NodeId b = world.spawn({500, 0});
  world.run_for(SimTime::from_seconds(1));

  baseline::LocalSpace owner(world.mw(a));
  owner.share("k", wire::Value{7});
  world.run_for(SimTime::from_seconds(1));

  baseline::LocalSpace peer(world.mw(b));
  EXPECT_FALSE(peer.lookup("k").has_value());

  // Walk b next to a: the spaces "merge" (scope-1 field flows in)…
  world.net().move_node(b, {50, 0});
  world.run_for(SimTime::from_seconds(2));
  EXPECT_TRUE(peer.lookup("k").has_value());

  // …and disengage on departure: the replica is withdrawn.
  world.net().move_node(b, {500, 0});
  world.run_for(SimTime::from_seconds(2));
  EXPECT_FALSE(peer.lookup("k").has_value());
}

TEST(FlockingTest, TwoAgentsSettleNearTargetDistance) {
  auto o = options();
  o.net.radio.range_m = 60.0;
  emu::ShardedWorld world(o);
  const Rect arena{{0, 0}, {400, 400}};

  // A static relay mesh so the agents stay connected while manoeuvring.
  for (double x = 0; x <= 400; x += 50) {
    for (double y = 0; y <= 400; y += 50) {
      world.spawn({x, y});
    }
  }
  // Two mobile agents starting close together.
  const NodeId a1 =
      world.spawn({190, 200}, std::make_unique<sim::VelocityMobility>(arena, 8.0));
  const NodeId a2 =
      world.spawn({210, 200}, std::make_unique<sim::VelocityMobility>(arena, 8.0));
  world.run_for(SimTime::from_seconds(1));

  apps::FlockingParams params;
  params.target_hops = 3;
  params.field_scope = 8;
  apps::FlockingController c1(
      world.mw(a1), params,
      [&](Vec2 v) { world.net().set_velocity(a1, v); });
  apps::FlockingController c2(
      world.mw(a2), params,
      [&](Vec2 v) { world.net().set_velocity(a2, v); });
  c1.start();
  c2.start();
  world.run_for(SimTime::from_seconds(40));

  EXPECT_GE(c1.visible_peers(), 1u);
  // Started 20 m apart (≈1 hop); the target of 3 hops must push them
  // clearly apart.
  const double gap = distance(world.net().position(a1),
                              world.net().position(a2));
  EXPECT_GT(gap, 80.0) << "agents failed to separate, gap=" << gap;
}

TEST(MeetingTest, AgentsConvergeOnEachOther) {
  auto o = options();
  o.net.radio.range_m = 60.0;
  emu::ShardedWorld world(o);
  const Rect arena{{0, 0}, {400, 400}};
  for (double x = 0; x <= 400; x += 50) {
    for (double y = 0; y <= 400; y += 50) {
      world.spawn({x, y});
    }
  }
  const NodeId a1 =
      world.spawn({40, 40}, std::make_unique<sim::VelocityMobility>(arena, 8.0));
  const NodeId a2 = world.spawn({360, 360},
                                std::make_unique<sim::VelocityMobility>(arena, 8.0));
  world.run_for(SimTime::from_seconds(1));
  const double initial_gap =
      distance(world.net().position(a1), world.net().position(a2));

  apps::MeetingParams params;
  apps::MeetingAgent m1(world.mw(a1), params,
                        [&](Vec2 v) { world.net().set_velocity(a1, v); });
  apps::MeetingAgent m2(world.mw(a2), params,
                        [&](Vec2 v) { world.net().set_velocity(a2, v); });
  m1.start();
  m2.start();
  world.run_for(SimTime::from_seconds(60));

  const double final_gap =
      distance(world.net().position(a1), world.net().position(a2));
  EXPECT_LT(final_gap, initial_gap / 3.0)
      << "initial=" << initial_gap << " final=" << final_gap;
}

}  // namespace
}  // namespace tota
