// Tests for crowd-aware navigation (the Co-Fields museum scenario).
#include <gtest/gtest.h>

#include <memory>

#include "apps/crowd.h"
#include "emu/sharded_world.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

emu::ShardedWorld::Options options() {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 65.0;
  o.net.seed = 15;
  return o;
}

struct Scenario {
  explicit Scenario(emu::ShardedWorld& w) : world(w) {
    for (double x = 0; x <= 400; x += 50) {
      for (double y = 0; y <= 200; y += 50) {
        world.spawn({x, y});
      }
    }
    attraction = world.spawn({390, 100});
    world.run_for(SimTime::from_seconds(1));
    world.mw(attraction).inject(
        std::make_unique<GradientTuple>("exhibit"));
    world.run_for(SimTime::from_seconds(2));
  }

  NodeId add_visitor(Vec2 at) {
    const NodeId v = world.spawn(
        at, std::make_unique<sim::VelocityMobility>(
                Rect{{0, 0}, {400, 200}}, 9.0));
    world.run_for(SimTime::from_millis(500));
    return v;
  }

  emu::ShardedWorld& world;
  NodeId attraction;
};

apps::CrowdNavParams params() {
  apps::CrowdNavParams p;
  p.destination = "exhibit";
  p.arrive_hops = 1;
  return p;
}

TEST(CrowdNavTest, SensesDestinationDistance) {
  emu::ShardedWorld world(options());
  Scenario s(world);
  const NodeId v = s.add_visitor({10, 100});
  apps::CrowdNavigator nav(world.mw(v), params(), [](Vec2) {});
  const auto d = nav.destination_hops();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, *world.net().topology().hop_distance(v, s.attraction));
  EXPECT_FALSE(nav.arrived());
}

TEST(CrowdNavTest, ReachesTheAttraction) {
  emu::ShardedWorld world(options());
  Scenario s(world);
  const NodeId v = s.add_visitor({10, 100});
  apps::CrowdNavigator nav(world.mw(v), params(),
                           [&](Vec2 f) { world.net().set_velocity(v, f); });
  nav.start();
  world.run_for(SimTime::from_seconds(90));
  EXPECT_TRUE(nav.arrived())
      << "still " << nav.destination_hops().value_or(-1) << " hops away";
  EXPECT_LT(distance(world.net().position(v),
                     world.net().position(s.attraction)),
            140.0);
}

TEST(CrowdNavTest, SensesNearbyVisitors) {
  emu::ShardedWorld world(options());
  Scenario s(world);
  const NodeId a = s.add_visitor({100, 100});
  const NodeId b = s.add_visitor({110, 100});
  apps::CrowdNavigator nav_a(world.mw(a), params(), [](Vec2) {});
  apps::CrowdNavigator nav_b(world.mw(b), params(), [](Vec2) {});
  nav_a.start();
  nav_b.start();
  world.run_for(SimTime::from_seconds(2));
  EXPECT_GE(nav_a.crowd_nearby(), 1);
  EXPECT_GE(nav_b.crowd_nearby(), 1);
}

TEST(CrowdNavTest, RepulsionSpreadsTwoVisitors) {
  // Both head for the same attraction from the same spot; repulsion must
  // keep them farther apart than a no-repulsion run.
  auto final_gap = [](double repulsion) {
    emu::ShardedWorld world(options());
    Scenario s(world);
    const NodeId a = s.add_visitor({20, 90});
    const NodeId b = s.add_visitor({20, 110});
    auto p = params();
    p.repulsion = repulsion;
    apps::CrowdNavigator nav_a(
        world.mw(a), p, [&](Vec2 f) { world.net().set_velocity(a, f); });
    apps::CrowdNavigator nav_b(
        world.mw(b), p, [&](Vec2 f) { world.net().set_velocity(b, f); });
    nav_a.start();
    nav_b.start();
    world.run_for(SimTime::from_seconds(30));  // mid-journey
    return distance(world.net().position(a), world.net().position(b));
  };
  EXPECT_GT(final_gap(4.0), final_gap(0.0));
}

TEST(CrowdNavTest, StopsSteeringOnArrival) {
  emu::ShardedWorld world(options());
  Scenario s(world);
  const NodeId v = s.add_visitor({360, 100});  // next to the attraction
  Vec2 last_steer{9, 9};
  apps::CrowdNavigator nav(world.mw(v), params(),
                           [&](Vec2 f) { last_steer = f; });
  nav.start();
  world.run_for(SimTime::from_seconds(2));
  EXPECT_TRUE(nav.arrived());
  EXPECT_EQ(last_steer, (Vec2{}));
}

}  // namespace
}  // namespace tota
