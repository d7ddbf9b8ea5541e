// Flocking in the TOTA emulator (paper §5.3, Figure 3).
//
// Mobile agents inject FLOCK fields (val minimal at X hops) and descend
// each other's fields.  Starting from a random huddle, they spread into
// a loose grid that keeps the preferred spacing.  Prints ASCII snapshots
// of the arena — the headless equivalent of the paper's emulator window —
// and the formation error over time.
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/flocking.h"
#include "emu/render.h"
#include "emu/sharded_world.h"

using namespace tota;

namespace {

/// Mean distance from each agent to its nearest peer; the flock aims for
/// everyone having a neighbour at roughly target spacing.
double mean_nearest_gap(const emu::ShardedWorld& world,
                        const std::vector<NodeId>& agents) {
  double total = 0;
  for (const NodeId a : agents) {
    double nearest = 1e12;
    for (const NodeId b : agents) {
      if (a == b) continue;
      nearest = std::min(nearest, distance(world.net().position(a),
                                           world.net().position(b)));
    }
    total += nearest;
  }
  return total / static_cast<double>(agents.size());
}

}  // namespace

int main() {
  const Rect arena{{0, 0}, {500, 500}};
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 60.0;
  options.net.seed = 3;
  emu::ShardedWorld world(options);

  // A static relay mesh models the ad-hoc substrate of Fig. 3 (cubes in
  // range of each other); the flocking agents are the black cubes.
  for (double x = 0; x <= 500; x += 50) {
    for (double y = 0; y <= 500; y += 50) {
      world.spawn({x, y});
    }
  }

  std::vector<NodeId> agents;
  for (int i = 0; i < 6; ++i) {
    const double angle = static_cast<double>(i) * 1.047;
    agents.push_back(world.spawn(
        {250 + 18 * std::cos(angle), 250 + 18 * std::sin(angle)},
        std::make_unique<sim::VelocityMobility>(arena, 10.0)));
  }
  world.run_for(SimTime::from_seconds(1));

  apps::FlockingParams params;
  params.target_hops = 2;  // preferred spacing: 2 hops (~100-120 m here)
  params.field_scope = 6;
  std::vector<std::unique_ptr<apps::FlockingController>> controllers;
  for (const NodeId id : agents) {
    controllers.push_back(std::make_unique<apps::FlockingController>(
        world.mw(id), params,
        [&world, id](Vec2 v) { world.net().set_velocity(id, v); }));
    controllers.back()->start();
  }

  const auto agent_glyph = [&](NodeId id) {
    for (const NodeId a : agents) {
      if (a == id) return '#';
    }
    return '.';
  };

  std::printf("flock of %zu agents, target spacing %d hops\n\n",
              agents.size(), params.target_hops);
  for (int snapshot = 0; snapshot <= 4; ++snapshot) {
    std::printf("t=%4.0fs   mean nearest-peer gap: %5.1f m\n",
                world.now().seconds(), mean_nearest_gap(world, agents));
    std::printf("%s\n",
                emu::ascii_map(world.net().topology(), arena, 50, 16,
                               agent_glyph)
                    .c_str());
    if (snapshot < 4) world.run_for(SimTime::from_seconds(15));
  }

  emu::write_ppm("flocking_final.ppm", world.net().topology(), arena, 250,
                 250,
                 [&](NodeId id) -> std::array<std::uint8_t, 3> {
                   for (const NodeId a : agents) {
                     if (a == id) return {20, 20, 20};  // black cubes
                   }
                   return {160, 160, 200};
                 });
  std::printf("final layout written to flocking_final.ppm\n");
  return 0;
}
