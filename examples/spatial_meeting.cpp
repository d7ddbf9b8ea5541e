// Spatially-scoped tuples + Co-Fields rendezvous.
//
// Part 1 — physical scoping: a "café" node publishes a SpaceTuple that
// lives only within 150 m of its position ("propagated, say, at most for
// 10 meters from its source"), and a DirectionTuple beamed eastwards.
// Devices inside/outside the zone compare their views.
//
// Part 2 — meeting: three users scattered around the arena run
// MeetingAgents; each descends the others' gradients and they converge.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/meeting.h"
#include "emu/sharded_world.h"
#include "tuples/space_tuple.h"

using namespace tota;

int main() {
  const Rect arena{{0, 0}, {600, 600}};
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 70.0;
  options.net.seed = 17;
  emu::ShardedWorld world(options);

  for (double x = 0; x <= 600; x += 55) {
    for (double y = 0; y <= 600; y += 55) {
      world.spawn({x, y});
    }
  }
  world.run_for(SimTime::from_seconds(1));

  // --- Part 1: spatial scoping ------------------------------------------
  const NodeId cafe = world.spawn({300, 300});
  world.run_for(SimTime::from_seconds(1));
  {
    auto zone = std::make_unique<tuples::SpaceTuple>("cafe-offer", 150.0);
    zone->content().set("offer", "espresso 1EUR");
    world.mw(cafe).inject(std::move(zone));
  }
  world.mw(cafe).inject(std::make_unique<tuples::DirectionTuple>(
      "east-beam", Vec2{1, 0}, 3.14159 / 5.0));
  world.run_for(SimTime::from_seconds(2));

  const NodeId inside = world.spawn({360, 300});   // 60 m from the café
  const NodeId outside = world.spawn({540, 300});  // 240 m away
  world.run_for(SimTime::from_seconds(2));

  auto describe = [&](const char* label, NodeId id) {
    const auto offer =
        world.mw(id).read_one(Pattern::of_type(tuples::SpaceTuple::kTag));
    const auto beam =
        world.mw(id).read_one(Pattern::of_type(tuples::DirectionTuple::kTag));
    std::printf("%-8s sees offer: %-16s beam: %s\n", label,
                offer ? offer->content().at("offer").as_string().c_str()
                      : "(nothing)",
                beam ? "yes" : "no");
  };
  std::printf("spatially scoped tuples around the cafe at (300,300):\n");
  describe("inside", inside);
  describe("outside", outside);

  // --- Part 2: rendezvous -------------------------------------------------
  std::printf("\nthree users meeting via co-fields:\n");
  std::vector<NodeId> users;
  users.push_back(world.spawn({60, 60},
                              std::make_unique<sim::VelocityMobility>(arena, 9.0)));
  users.push_back(world.spawn({540, 90},
                              std::make_unique<sim::VelocityMobility>(arena, 9.0)));
  users.push_back(world.spawn({300, 540},
                              std::make_unique<sim::VelocityMobility>(arena, 9.0)));
  world.run_for(SimTime::from_seconds(1));

  std::vector<std::unique_ptr<apps::MeetingAgent>> agents;
  apps::MeetingParams params;
  params.field_scope = 14;
  for (const NodeId id : users) {
    agents.push_back(std::make_unique<apps::MeetingAgent>(
        world.mw(id), params,
        [&world, id](Vec2 v) { world.net().set_velocity(id, v); }));
    agents.back()->start();
  }

  auto spread = [&] {
    double worst = 0;
    for (const NodeId a : users) {
      for (const NodeId b : users) {
        worst = std::max(worst, distance(world.net().position(a),
                                         world.net().position(b)));
      }
    }
    return worst;
  };

  for (int i = 0; i <= 6; ++i) {
    std::printf("  t=%5.0fs  max user separation: %6.1f m%s\n",
                world.now().seconds(), spread(),
                agents[0]->arrived() ? "  (arrived)" : "");
    if (i < 6) world.run_for(SimTime::from_seconds(20));
  }
  return 0;
}
