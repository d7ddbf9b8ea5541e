// Gathering information from sensors in a dynamic network (paper §5.2).
//
// Sensor nodes advertise readings proactively (advert fields) and also
// answer queries reactively (query/answer tuples).  A mobile user device
// harvests adverts from its local tuple space — zero communication at
// lookup time — and issues a scoped query, which only nearby sensors
// answer.
#include <cstdio>

#include "apps/gathering.h"
#include "emu/sharded_world.h"

using namespace tota;

int main() {
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 120.0;
  options.net.seed = 23;
  emu::ShardedWorld world(options);
  const auto mesh = world.spawn_grid(5, 5, 90.0);
  world.run_for(SimTime::from_seconds(1));

  // Three sensors at the corners of the mesh.
  apps::InfoProvider thermo(world.mw(mesh[0]), "temperature");
  apps::InfoProvider hygro(world.mw(mesh[4]), "humidity");
  apps::InfoProvider anemo(world.mw(mesh[20]), "wind");
  thermo.advertise();
  hygro.advertise();
  anemo.advertise();
  thermo.answer_queries([] { return "21C"; });
  hygro.answer_queries([] { return "40%"; });
  anemo.answer_queries([] { return "3 m/s NW"; });
  world.run_for(SimTime::from_seconds(2));  // advert fields spread

  // The user stands in the middle and reads its *local* tuple space:
  // every sensor's advert already arrived, with distance and location.
  const NodeId user = mesh[12];
  apps::InfoSeeker seeker(world.mw(user));
  std::printf("adverts visible at the user device (no communication):\n");
  for (const auto& ad : seeker.local_adverts()) {
    std::printf("  %-12s %d hops away, at %s\n", ad.description.c_str(),
                ad.distance_hops, to_string(ad.location).c_str());
  }

  // Reactive mode: a query scoped to 2 hops — only close sensors answer
  // (the [RomJH02] "gas stations within 10 miles" pattern).
  std::printf("\nscoped query \"temperature\" (2 hops):\n");
  seeker.query(
      "temperature",
      [&](const std::string& answer) {
        std::printf("  [%6.3fs] answer: %s\n", world.now().seconds(),
                    answer.c_str());
      },
      /*scope=*/2);
  world.run_for(SimTime::from_seconds(2));
  if (seeker.answers_received() == 0) {
    std::printf("  (no sensor within scope)\n");
  }

  // Unscoped query reaches the far corner sensors too.
  std::printf("\nnetwork-wide query \"wind\":\n");
  apps::InfoSeeker seeker2(world.mw(mesh[0]));
  seeker2.query("wind", [&](const std::string& answer) {
    std::printf("  [%6.3fs] answer: %s\n", world.now().seconds(),
                answer.c_str());
  });
  world.run_for(SimTime::from_seconds(3));

  std::printf("\ntotal radio transmissions: %lld\n",
              static_cast<long long>(world.metrics().get("radio.tx")));
  return 0;
}
