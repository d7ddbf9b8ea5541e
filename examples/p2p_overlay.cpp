// Content-based routing in an Internet peer-to-peer scenario (paper
// §5.1's closing claim: the structure/message mechanism "allows TOTA to
// realize systems providing content-based routing in the Internet
// peer-to-peer scenario, such as CAN and Pastry").
//
// The network runs in *wired* mode (paper §4.1): neighbourhood is
// addressability, not radio range.  Each peer takes a point in a virtual
// coordinate space and connects to the peers nearest to it in that space
// (the CAN idea), plus a couple of long-range contacts.  A ContentStore
// then hashes keys into the space and routes PUT/GET greedily through
// the overlay.  Finally some peers leave and lookups keep working.
#include <cstdio>
#include <map>
#include <memory>

#include "apps/content_store.h"
#include "emu/sharded_world.h"

using namespace tota;

int main() {
  const Rect space{{0, 0}, {1000, 1000}};
  emu::ShardedWorld::Options options;
  options.net.wired = true;
  options.net.seed = 404;
  // Internet links: ~25 ms one-way.
  options.net.radio.base_delay = SimTime::from_millis(20);
  options.net.radio.jitter = SimTime::from_millis(10);
  emu::ShardedWorld world(options);

  // 40 peers at random virtual coordinates.
  const auto peers = world.spawn_random(40, space);

  // Overlay wiring: each peer links to its 3 nearest peers in the virtual
  // space plus one random long-range contact.
  for (const NodeId p : peers) {
    std::multimap<double, NodeId> by_distance;
    for (const NodeId q : peers) {
      if (q == p) continue;
      by_distance.emplace(
          distance(world.net().position(p), world.net().position(q)), q);
    }
    // 5 nearest: dense enough that greedy descent rarely meets a void
    // (CAN proper uses exact Voronoi neighbours, where it never does).
    int wired = 0;
    for (const auto& [d, q] : by_distance) {
      world.net().connect(p, q);
      if (++wired == 5) break;
    }
    const NodeId faraway = std::prev(by_distance.end())->second;
    world.net().connect(p, faraway);
  }
  world.run_for(SimTime::from_seconds(1));
  std::printf("overlay: 40 peers, %s\n",
              world.net().topology().connected() ? "connected"
                                                 : "NOT connected");

  std::map<NodeId, std::unique_ptr<apps::ContentStore>> stores;
  for (const NodeId p : peers) {
    stores.emplace(p, std::make_unique<apps::ContentStore>(world.mw(p),
                                                           space));
    stores.at(p)->start();
  }
  world.run_for(SimTime::from_seconds(1));  // coordinate beacons settle

  // Publish a few resources from random peers.
  const char* files[] = {"song.mp3", "paper.pdf", "video.avi",
                         "dataset.csv", "backup.tar"};
  int i = 0;
  for (const char* f : files) {
    stores.at(peers[static_cast<std::size_t>(i * 7) % peers.size()])
        ->put(f, std::string("content-of-") + f);
    ++i;
  }
  world.run_for(SimTime::from_seconds(2));

  std::size_t total = 0;
  for (const auto& [p, s] : stores) total += s->stored_keys();
  std::printf(
      "published 5 keys (%zu replicas — greedy local minima may adopt a\n"
      "key too); now looking them up from peer %s\n\n",
      total, to_string(peers[1]).c_str());

  int found = 0;
  for (const char* f : files) {
    stores.at(peers[1])->get(f, [&, f](std::optional<std::string> v) {
      std::printf("  [%6.3fs] get(%-12s) -> %s\n", world.now().seconds(), f,
                  v ? v->c_str() : "(not found)");
      if (v) ++found;
    });
    world.run_for(SimTime::from_seconds(1));
  }

  // Churn: a fifth of the peers leave; re-publish (real P2P systems
  // re-replicate), then look up again from another corner of the overlay.
  std::printf("\nchurn: 8 peers leave; keys re-published\n\n");
  for (std::size_t k = 2; k < 34; k += 4) {
    stores.erase(peers[k]);  // the app releases the node first…
    world.despawn(peers[k]);  // …then the device leaves
  }
  world.run_for(SimTime::from_seconds(2));
  for (const char* f : files) {
    stores.at(peers[35])->put(f, std::string("content-of-") + f);
  }
  world.run_for(SimTime::from_seconds(2));

  for (const char* f : files) {
    stores.at(peers[39])->get(f, [&, f](std::optional<std::string> v) {
      std::printf("  [%6.3fs] get(%-12s) -> %s\n", world.now().seconds(), f,
                  v ? v->c_str() : "(not found)");
    });
    world.run_for(SimTime::from_seconds(1));
  }

  std::printf("\ntotal frames on the overlay: %lld\n",
              static_cast<long long>(world.metrics().get("radio.tx")));
  return 0;
}
