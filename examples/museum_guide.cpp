// The museum scenario that motivates the TOTA / Co-Fields line of work:
// visitors with PDAs walk toward an attraction by descending its field
// while avoiding each other's crowd fields.
//
// A fixed mesh of "room" nodes forms the building's infrastructure; the
// attraction injects its gradient once; each visitor runs a
// CrowdNavigator.  Without repulsion every visitor would take the same
// shortest corridor; with it they spread and arrive with less local
// crowding, which the demo quantifies.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/crowd.h"
#include "emu/render.h"
#include "emu/sharded_world.h"

using namespace tota;

namespace {

double worst_crowding(const emu::ShardedWorld& world,
                      const std::vector<NodeId>& visitors) {
  // Max number of visitor pairs within one radio hop of each other.
  int worst = 0;
  for (const NodeId a : visitors) {
    int close = 0;
    for (const NodeId b : visitors) {
      if (a != b && distance(world.net().position(a),
                             world.net().position(b)) < 60.0) {
        ++close;
      }
    }
    worst = std::max(worst, close);
  }
  return worst;
}

}  // namespace

int main() {
  const Rect museum{{0, 0}, {600, 300}};
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 65.0;
  options.net.seed = 5;
  emu::ShardedWorld world(options);

  // The building: a mesh of room/corridor nodes.
  for (double x = 0; x <= 600; x += 50) {
    for (double y = 0; y <= 300; y += 50) {
      world.spawn({x, y});
    }
  }
  // The attraction in the far-right wing announces itself.
  const NodeId attraction = world.spawn({580, 150});
  world.run_for(SimTime::from_seconds(1));
  world.mw(attraction)
      .inject(std::make_unique<tuples::GradientTuple>("mona-lisa"));
  world.run_for(SimTime::from_seconds(2));

  // Visitors enter at the left entrance in a tight group.
  std::vector<NodeId> visitors;
  for (int i = 0; i < 6; ++i) {
    visitors.push_back(world.spawn(
        {15.0 + 10.0 * (i % 2), 130.0 + 12.0 * i},
        std::make_unique<sim::VelocityMobility>(museum, 9.0)));
  }
  world.run_for(SimTime::from_seconds(1));

  apps::CrowdNavParams params;
  params.destination = "mona-lisa";
  // Visitors gather *around* the exhibit (2 hops) rather than on one
  // tile, and politeness must not overpower the urge to arrive.
  params.arrive_hops = 2;
  params.repulsion = 0.8;
  std::vector<std::unique_ptr<apps::CrowdNavigator>> navs;
  for (const NodeId v : visitors) {
    navs.push_back(std::make_unique<apps::CrowdNavigator>(
        world.mw(v), params,
        [&world, v](Vec2 f) { world.net().set_velocity(v, f); }));
    navs.back()->start();
  }

  const auto glyph = [&](NodeId id) {
    if (id == attraction) return 'M';
    for (const NodeId v : visitors) {
      if (v == id) return '#';
    }
    return '.';
  };

  std::printf("6 visitors head for the attraction (M), avoiding crowds\n\n");
  int arrived_at = -1;
  for (int t = 0; t <= 100; t += 20) {
    int arrived = 0;
    for (const auto& nav : navs) arrived += nav->arrived() ? 1 : 0;
    std::printf("t=%3ds  arrived=%d/6  worst local crowding=%.0f\n",
                t, arrived, worst_crowding(world, visitors));
    std::printf("%s\n",
                emu::ascii_map(world.net().topology(), museum, 60, 10, glyph)
                    .c_str());
    if (arrived == 6 && arrived_at < 0) arrived_at = t;
    if (t < 100) world.run_for(SimTime::from_seconds(20));
  }

  int total_nearby = 0;
  for (const auto& nav : navs) total_nearby += nav->crowd_nearby();
  std::printf("end state: total sensed crowd pressure %d\n", total_nearby);
  return 0;
}
