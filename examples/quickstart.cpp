// Quickstart: inject a distributed tuple, watch it form a spatial
// structure, read it, and react to events.
//
// Builds a small mobile-ad-hoc world (the paper's emulator, headless),
// injects a GradientTuple from a corner node and prints the hop-distance
// field it paints over the network — the paper's Figure 1 scenario.
#include <cstdio>

#include "emu/sharded_world.h"
#include "tuples/gradient_tuple.h"

using namespace tota;

int main() {
  // A 5x5 grid of nodes, 80 m apart, radio range 100 m: each node hears
  // its 4-neighbours only, so tuples must travel hop by hop.
  emu::ShardedWorld::Options options;
  options.net.radio.range_m = 100.0;
  options.net.seed = 2003;
  emu::ShardedWorld world(options);
  const auto nodes = world.spawn_grid(5, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));  // let neighbourhoods form

  // Subscribe on the far corner: tell us when the field arrives there.
  const NodeId corner = nodes.back();
  world.mw(corner).subscribe(
      Pattern::of_type(tuples::GradientTuple::kTag),
      [&](const Event& event) {
        std::printf("[%5.3fs] corner node sensed %s\n",
                    event.time.seconds(), event.tuple->str().c_str());
      },
      static_cast<int>(EventKind::kTupleArrived));

  // Inject the tuple at the opposite corner.  T = (C, P): content carries
  // a name; the propagation rule floods hop-by-hop, incrementing
  // `hopcount` — "enrich[ing] a network with a notion of space".
  const NodeId source = nodes.front();
  world.mw(source).inject(
      std::make_unique<tuples::GradientTuple>("quickstart-field"));

  world.run_for(SimTime::from_seconds(2));

  // Every node can now read the field locally and learn its distance from
  // the source without any global service.
  std::printf("\nhop-distance field painted by the tuple:\n");
  for (int row = 0; row < 5; ++row) {
    for (int col = 0; col < 5; ++col) {
      const NodeId id = nodes[static_cast<std::size_t>(row * 5 + col)];
      const auto replica = world.mw(id).read_one(
          Pattern::of_type(tuples::GradientTuple::kTag));
      std::printf(" %2lld",
                  replica ? replica->content().at("hopcount").as_int() : -1);
    }
    std::printf("\n");
  }

  std::printf("\nradio transmissions used: %lld\n",
              static_cast<long long>(world.metrics().get("radio.tx")));
  return 0;
}
