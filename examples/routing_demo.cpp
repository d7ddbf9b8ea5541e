// Routing on a mobile ad-hoc network (paper §5.1).
//
// A 40-node random deployment: one node advertises a routing structure,
// another sends messages along it.  Midway, we kill a batch of relays and
// watch the overlay repair itself — later messages still arrive, over the
// re-formed gradient.  A flooding sender runs side by side to show the
// cost difference.
#include <cstdio>

#include "apps/routing.h"
#include "baseline/flood_routing.h"
#include "emu/sharded_world.h"

using namespace tota;

int main() {
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 120.0;
  options.net.seed = 14;
  emu::ShardedWorld world(options);
  world.spawn_random(40, Rect{{0, 0}, {600, 600}});
  world.run_for(SimTime::from_seconds(1));

  const auto nodes = world.nodes();
  const NodeId dest = nodes.back();
  const NodeId src = nodes.front();
  std::printf("deployment: 40 nodes, sender=%s receiver=%s (%d hops apart)\n",
              to_string(src).c_str(), to_string(dest).c_str(),
              world.net().topology().hop_distance(src, dest).value_or(-1));

  apps::RoutingService receiver(
      world.mw(dest), [&](NodeId from, const std::string& payload) {
        std::printf("[%6.3fs] delivered from %s: \"%s\"\n",
                    world.now().seconds(), to_string(from).c_str(),
                    payload.c_str());
      });
  receiver.advertise();
  world.run_for(SimTime::from_seconds(2));  // overlay forms

  apps::RoutingService sender(world.mw(src), nullptr);

  auto send_and_cost = [&](const std::string& text) {
    const auto before = world.metrics().get("radio.tx");
    sender.send(dest, text);
    world.run_for(SimTime::from_seconds(2));
    return world.metrics().get("radio.tx") - before;
  };

  const auto routed_cost = send_and_cost("hello along the gradient");
  std::printf("  gradient descent used %lld transmissions\n\n",
              static_cast<long long>(routed_cost));

  // The same message by pure flooding, for contrast.
  baseline::FloodRoutingService flooder(world.mw(src), nullptr);
  const auto before = world.metrics().get("radio.tx");
  flooder.send(dest, "hello by flooding");
  world.run_for(SimTime::from_seconds(2));
  std::printf("  flooding used %lld transmissions\n\n",
              static_cast<long long>(world.metrics().get("radio.tx") -
                                     before));

  // Churn: kill a handful of relays, let the middleware repair the
  // structure, then send again.
  int killed = 0;
  for (const NodeId n : nodes) {
    if (n != src && n != dest && killed < 6) {
      world.despawn(n);
      ++killed;
    }
  }
  std::printf("killed %d relay nodes; structure repairing...\n", killed);
  world.run_for(SimTime::from_seconds(4));

  const auto post_churn_cost = send_and_cost("hello after churn");
  std::printf("  post-churn delivery used %lld transmissions\n",
              static_cast<long long>(post_churn_cost));
  std::printf("\nreceiver delivered %llu of %llu sent (plus 1 flooded)\n",
              static_cast<unsigned long long>(receiver.delivered()),
              static_cast<unsigned long long>(sender.sent()));
  return 0;
}
