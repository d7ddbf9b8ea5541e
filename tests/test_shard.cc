// Tests for the simulator (sim::ShardedSim + emu::ShardedWorld,
// docs/SIM.md).  Most cases run at one shard (the sequential simulator)
// and at several (threads, mail, epoch barriers).
//
// The two properties sharding must not break:
//
//   1. Radio correctness — a sharded run converges to exactly the state
//      a sequential run converges to: gradient hop counts equal the BFS
//      oracle, and the full per-node tuple-space contents are identical
//      across shard counts (1 vs 2 vs 4 shards, same world seed).
//
//   2. Determinism per (seed, shard_count) — running the same world
//      twice at the same shard count yields bit-identical merged
//      metrics JSON, even though epochs run on real threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "emu/sharded_world.h"
#include "net/fault.h"
#include "obs/export.h"
#include "obs_expect.h"
#include "sim/mobility.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;
using tota::testing::recorded;

// --- sim::ShardedSim ------------------------------------------------------

sim::ShardedParams params(std::uint32_t shards, std::uint64_t seed = 7) {
  sim::ShardedParams p;
  p.radio.range_m = 100.0;
  p.seed = seed;
  p.shards = shards;
  return p;
}

/// Records every upcall it receives, with the receiving shard clock.
class RecordingHost final : public sim::Host {
 public:
  RecordingHost(sim::ShardedSim& sim, NodeId self) : sim_(sim), self_(self) {}

  void on_datagram(NodeId from,
                   std::span<const std::uint8_t> payload) override {
    datagrams.push_back({from, sim_.node_now(self_),
                         wire::Bytes(payload.begin(), payload.end())});
  }
  void on_neighbor_up(NodeId neighbor) override { ups.push_back(neighbor); }
  void on_neighbor_down(NodeId neighbor) override {
    downs.push_back(neighbor);
  }

  struct Rx {
    NodeId from;
    SimTime at;
    wire::Bytes payload;
  };
  std::vector<Rx> datagrams;
  std::vector<NodeId> ups;
  std::vector<NodeId> downs;

 private:
  sim::ShardedSim& sim_;
  NodeId self_;
};

TEST(ShardedSimTest, PartitionIsContiguousInX) {
  sim::ShardedSim sim(params(4));
  std::vector<NodeId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(sim.add_node({static_cast<double>(i) * 10.0, 0.0}));
  }
  sim.seal();
  std::uint32_t last = 0;
  std::vector<bool> used(4, false);
  for (const NodeId id : ids) {
    const std::uint32_t owner = sim.shard_of(id);
    ASSERT_LT(owner, 4u);
    EXPECT_GE(owner, last) << "ownership must be monotone in x";
    last = owner;
    used[owner] = true;
  }
  for (int s = 0; s < 4; ++s) EXPECT_TRUE(used[s]) << "empty shard " << s;
}

TEST(ShardedSimTest, AddNodeAfterSealJoinsFrozenPartition) {
  sim::ShardedSim sim(params(2));
  const NodeId a = sim.add_node({0, 0});
  const NodeId b = sim.add_node({1000, 0});
  sim.seal();
  ASSERT_EQ(sim.shard_of(a), 0u);
  ASSERT_EQ(sim.shard_of(b), 1u);
  // Later nodes take their strip of the partition frozen at seal();
  // positions outside the sealed box clamp to the outer strips.
  EXPECT_EQ(sim.shard_of(sim.add_node({400, 0})), 0u);
  EXPECT_EQ(sim.shard_of(sim.add_node({600, 0})), 1u);
  EXPECT_EQ(sim.shard_of(sim.add_node({-500, 0})), 0u);
  EXPECT_EQ(sim.shard_of(sim.add_node({9000, 0})), 1u);
  // A late node links up like a teleported one.
  const NodeId c = sim.add_node({50, 0});
  EXPECT_EQ(sim.neighbors(c), std::vector<NodeId>{a});
  EXPECT_EQ(sim.neighbors(a), std::vector<NodeId>{c});
}

TEST(ShardedSimTest, ParallelModeRequiresLookahead) {
  auto p = params(2);
  p.radio.base_delay = SimTime::zero();
  EXPECT_THROW(sim::ShardedSim{p}, std::invalid_argument);
  p.shards = 1;  // sequential mode has no lookahead constraint
  EXPECT_NO_THROW(sim::ShardedSim{p});
}

TEST(ShardedSimTest, CrossShardBroadcastArrivesOnce) {
  // Two nodes in radio range, forced into different shards by position.
  sim::ShardedSim sim(params(2));
  const NodeId a = sim.add_node({0, 0});
  const NodeId b = sim.add_node({90, 0});
  sim.seal();
  ASSERT_NE(sim.shard_of(a), sim.shard_of(b));
  RecordingHost ha(sim, a);
  RecordingHost hb(sim, b);
  sim.attach(a, &ha);
  sim.attach(b, &hb);

  sim.broadcast(a, wire::Bytes{1, 2, 3});
  sim.run_for(SimTime::from_seconds(1));

  ASSERT_EQ(hb.datagrams.size(), 1u);
  EXPECT_EQ(hb.datagrams[0].from, a);
  EXPECT_EQ(hb.datagrams[0].payload, (wire::Bytes{1, 2, 3}));
  // Delay within [base, base + jitter].
  const auto& radio = sim.params().radio;
  EXPECT_GE(hb.datagrams[0].at, radio.base_delay);
  EXPECT_LE(hb.datagrams[0].at, radio.base_delay + radio.jitter);
  EXPECT_TRUE(ha.datagrams.empty()) << "no self-delivery";

  obs::MetricsRegistry merged;
  sim.export_metrics(merged);
  EXPECT_EQ(merged.get("sim.shard.cross_deliveries"), recorded(1));
  EXPECT_EQ(merged.get("radio.tx"), recorded(1));
  EXPECT_EQ(merged.get("radio.rx"), recorded(1));
  EXPECT_GE(merged.get("sim.shard.epochs"), recorded(1));
}

TEST(ShardedSimTest, MoveNodeMaintainsLinksIncrementally) {
  sim::ShardedSim sim(params(2));
  const NodeId a = sim.add_node({0, 0});
  const NodeId b = sim.add_node({90, 0});
  sim.seal();
  RecordingHost ha(sim, a);
  RecordingHost hb(sim, b);
  sim.attach(a, &ha);
  sim.attach(b, &hb);
  sim.run_for(SimTime::from_millis(10));
  ASSERT_EQ(ha.ups, std::vector<NodeId>{b});
  ASSERT_EQ(hb.ups, std::vector<NodeId>{a});

  sim.move_node(b, {5000, 5000});
  EXPECT_TRUE(sim.neighbors(a).empty());
  sim.run_for(SimTime::from_millis(10));
  EXPECT_EQ(ha.downs, std::vector<NodeId>{b});
  EXPECT_EQ(hb.downs, std::vector<NodeId>{a});

  sim.move_node(b, {50, 0});
  EXPECT_EQ(sim.neighbors(a), std::vector<NodeId>{b});
  EXPECT_EQ(sim.neighbors(a), sim.topology().neighbors(a));
  sim.run_for(SimTime::from_millis(10));
  EXPECT_EQ(ha.ups, (std::vector<NodeId>{b, b}));
}

// --- the simulated medium, at one and at several shards --------------

sim::ShardedParams quiet_params(std::uint32_t shards) {
  sim::ShardedParams p;
  p.radio.range_m = 10.0;
  p.radio.jitter = SimTime::zero();
  p.seed = 99;
  p.shards = shards;
  return p;
}

obs::MetricsRegistry merged(const sim::ShardedSim& sim) {
  obs::MetricsRegistry out;
  sim.export_metrics(out);
  return out;
}

TEST(NetworkTest, BroadcastReachesNeighborsOnly) {
  for (const std::uint32_t shards : {1u, 3u}) {
    sim::ShardedSim net(quiet_params(shards));
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({5, 0});
    const NodeId c = net.add_node({50, 0});
    RecordingHost h1(net, a);
    RecordingHost h2(net, b);
    RecordingHost h3(net, c);
    net.attach(a, &h1);
    net.attach(b, &h2);
    net.attach(c, &h3);
    net.seal();

    net.broadcast(a, {1, 2, 3});
    net.run_for(SimTime::from_seconds(1));

    ASSERT_EQ(h2.datagrams.size(), 1u) << shards << " shards";
    EXPECT_EQ(h2.datagrams[0].from, a);
    EXPECT_EQ(h2.datagrams[0].payload, (wire::Bytes{1, 2, 3}));
    EXPECT_TRUE(h3.datagrams.empty());
    EXPECT_TRUE(h1.datagrams.empty());  // no self-delivery
    EXPECT_EQ(merged(net).get("radio.tx"), recorded(1));
    EXPECT_EQ(merged(net).get("radio.rx"), recorded(1));
  }
}

TEST(NetworkTest, LinkEventsOnJoin) {
  for (const std::uint32_t shards : {1u, 2u}) {
    sim::ShardedSim net(quiet_params(shards));
    const NodeId a = net.add_node({0, 0});
    RecordingHost h1(net, a);
    net.attach(a, &h1);
    const NodeId b = net.add_node({5, 0});
    RecordingHost h2(net, b);
    net.attach(b, &h2);
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.ups, std::vector<NodeId>{b});
    EXPECT_EQ(h2.ups, std::vector<NodeId>{a});
    // A node joining the running world links up the same way.
    const NodeId c = net.add_node({3, 3});
    RecordingHost h3(net, c);
    net.attach(c, &h3);
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.ups, (std::vector<NodeId>{b, c}));
    EXPECT_EQ(h3.ups, (std::vector<NodeId>{a, b}));
  }
}

TEST(NetworkTest, LinkEventsOnDeparture) {
  for (const std::uint32_t shards : {1u, 2u}) {
    sim::ShardedSim net(quiet_params(shards));
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({5, 0});
    RecordingHost h1(net, a);
    RecordingHost h2(net, b);
    net.attach(a, &h1);
    net.attach(b, &h2);
    net.run_for(SimTime::from_seconds(1));
    net.remove_node(b);
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
    EXPECT_TRUE(h2.downs.empty()) << "the departed node hears nothing";
    EXPECT_FALSE(net.alive(b));
    EXPECT_TRUE(net.neighbors(a).empty());
    EXPECT_EQ(net.nodes(), std::vector<NodeId>{a});
  }
}

TEST(NetworkTest, LinkEventsOnMove) {
  for (const std::uint32_t shards : {1u, 2u}) {
    sim::ShardedSim net(quiet_params(shards));
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({5, 0});
    RecordingHost h1(net, a);
    net.attach(a, &h1);
    net.run_for(SimTime::from_seconds(1));
    net.move_node(b, {100, 0});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
    net.move_node(b, {7, 0});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.ups.size(), 2u);
  }
}

TEST(NetworkTest, LossDropsFrames) {
  for (const std::uint32_t shards : {1u, 2u}) {
    auto p = quiet_params(shards);
    p.radio.loss_probability = 1.0;
    sim::ShardedSim net(p);
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({5, 0});
    RecordingHost h2(net, b);
    net.attach(b, &h2);
    net.seal();
    net.broadcast(a, {42});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_TRUE(h2.datagrams.empty());
    EXPECT_EQ(merged(net).get("radio.lost"), recorded(1));
  }
}

TEST(NetworkTest, MobilityTickMovesNodes) {
  for (const std::uint32_t shards : {1u, 2u}) {
    sim::ShardedSim net(quiet_params(shards));
    net.add_node({500, 500});  // gives the partition some width
    const NodeId a =
        net.add_node({0, 0}, std::make_unique<sim::VelocityMobility>(
                                 Rect{{0, 0}, {1000, 1000}}, 100.0));
    net.set_velocity(a, {10, 0});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_NEAR(net.position(a).x, 10.0, 1.5);
  }
}

TEST(NetworkTest, SetVelocityWithoutModelThrows) {
  sim::ShardedSim net(quiet_params(1));
  const NodeId a = net.add_node({0, 0});
  EXPECT_THROW(net.set_velocity(a, {1, 0}), std::invalid_argument);
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  for (const std::uint32_t shards : {1u, 2u}) {
    auto run = [shards] {
      auto p = quiet_params(shards);
      p.radio.jitter = SimTime::from_millis(3);
      p.radio.loss_probability = 0.5;
      sim::ShardedSim net(p);
      const NodeId a = net.add_node({0, 0});
      const NodeId b = net.add_node({5, 0});
      RecordingHost h(net, b);
      net.attach(b, &h);
      net.seal();
      for (int i = 0; i < 10; ++i) {
        net.broadcast(a, {static_cast<std::uint8_t>(i)});
      }
      net.run_for(SimTime::from_seconds(1));
      std::vector<std::int64_t> out;
      for (const auto& rx : h.datagrams) out.push_back(rx.at.micros());
      return out;
    };
    EXPECT_EQ(run(), run());
  }
}

TEST(WiredNetworkTest, ConnectDisconnectFireLinkEvents) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    auto p = quiet_params(shards);
    p.wired = true;
    sim::ShardedSim net(p);
    const NodeId a = net.add_node({0, 0});
    const NodeId b = net.add_node({1000, 1000});  // distance is irrelevant
    RecordingHost h1(net, a);
    RecordingHost h2(net, b);
    net.attach(a, &h1);
    net.attach(b, &h2);
    net.run_for(SimTime::from_seconds(1));
    EXPECT_TRUE(h1.ups.empty());
    if (shards > 1) {
      EXPECT_NE(net.shard_of(a), net.shard_of(b));
    }

    net.connect(a, b);
    EXPECT_EQ(net.neighbors(a), std::vector<NodeId>{b});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.ups, std::vector<NodeId>{b});
    EXPECT_EQ(h2.ups, std::vector<NodeId>{a});

    net.broadcast(a, {7});
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(merged(net).get("radio.rx"), recorded(1));

    net.disconnect(a, b);
    EXPECT_TRUE(net.neighbors(b).empty());
    net.run_for(SimTime::from_seconds(1));
    EXPECT_EQ(h1.downs, std::vector<NodeId>{b});
    EXPECT_EQ(h2.downs, std::vector<NodeId>{a});
    EXPECT_EQ(merged(net).get("link.up"), recorded(2));
    EXPECT_EQ(merged(net).get("link.down"), recorded(2));
  }
}

// --- emu::ShardedWorld ----------------------------------------------------

emu::ShardedWorld::Options world_options(std::uint32_t shards,
                                         std::uint64_t seed = 7) {
  emu::ShardedWorld::Options o;
  o.net = params(shards, seed);
  return o;
}

/// Per-node tuple-space snapshot: sorted "tag|content" lines, one per
/// local tuple — the strictest portable notion of "same contents".
std::vector<std::string> space_snapshot(const emu::ShardedWorld& world,
                                        NodeId node) {
  std::vector<std::string> out;
  for (const auto& t : world.mw(node).read(Pattern())) {
    out.push_back(t->type_tag() + "|" + t->content().str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds a 12×12 grid world, injects two gradients and a flood, runs to
/// convergence, and returns it.
struct ConvergedWorld {
  explicit ConvergedWorld(std::uint32_t shards, std::uint64_t seed = 7)
      : world(world_options(shards, seed)) {
    nodes = world.spawn_grid(12, 12, 80.0);
    world.run_for(SimTime::from_millis(500));
    world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("alpha"));
    world.mw(nodes[77]).inject(std::make_unique<GradientTuple>("beta"));
    world.mw(nodes[140]).inject(
        std::make_unique<FloodTuple>("notice", wire::Value{42}));
    world.run_for(SimTime::from_seconds(8));
  }
  emu::ShardedWorld world;
  std::vector<NodeId> nodes;
};

TEST(ShardedWorldTest, GradientIsBfsExactPerShardCount) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    ConvergedWorld cw(shards);
    const auto oracle = cw.world.net().topology().hop_distances(cw.nodes[0]);
    for (const NodeId n : cw.nodes) {
      const auto replica = cw.world.mw(n).read_one(
          Pattern::of_type(GradientTuple::kTag).eq("name", "alpha"));
      ASSERT_NE(replica, nullptr)
          << "node " << to_string(n) << " missed the field at " << shards
          << " shards";
      EXPECT_EQ(replica->content().at("hopcount").as_int(),
                oracle.at(n))
          << "node " << to_string(n) << " at " << shards << " shards";
    }
  }
}

TEST(ShardedWorldTest, FinalContentsIdenticalAcrossShardCounts) {
  ConvergedWorld one(1);
  ConvergedWorld two(2);
  ConvergedWorld four(4);
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto expect = space_snapshot(one.world, one.nodes[i]);
    EXPECT_FALSE(expect.empty());
    EXPECT_EQ(space_snapshot(two.world, two.nodes[i]), expect)
        << "node index " << i << ", 2 shards vs 1";
    EXPECT_EQ(space_snapshot(four.world, four.nodes[i]), expect)
        << "node index " << i << ", 4 shards vs 1";
  }
}

TEST(ShardedWorldTest, ChurnHealsBfsExactAcrossShards) {
  ConvergedWorld cw(4);
  // Teleport a mid-grid node (likely near a shard boundary) far away,
  // let the field self-heal, then bring it home and re-converge.
  const NodeId flapper = cw.nodes[66];
  const Vec2 home = cw.world.net().position(flapper);
  cw.world.move_node(flapper, {50000, 50000});
  cw.world.run_for(SimTime::from_seconds(5));
  cw.world.move_node(flapper, home);
  cw.world.run_for(SimTime::from_seconds(5));

  const auto oracle = cw.world.net().topology().hop_distances(cw.nodes[0]);
  const Pattern alpha =
      Pattern::of_type(GradientTuple::kTag).eq("name", "alpha");
  for (const NodeId n : cw.nodes) {
    const auto replica = cw.world.mw(n).read_one(alpha);
    ASSERT_NE(replica, nullptr);
    EXPECT_EQ(replica->content().at("hopcount").as_int(), oracle.at(n));
  }
}

TEST(ShardedWorldTest, SubscriptionsFireOnWorkerThreads) {
  emu::ShardedWorld world(world_options(4));
  const auto nodes = world.spawn_grid(8, 8, 80.0);
  std::atomic<std::uint64_t> reactions{0};
  world.seal();
  for (const NodeId n : nodes) {
    world.mw(n).subscribe(
        Pattern::of_type(GradientTuple::kTag),
        [&reactions](const Event&) {
          reactions.fetch_add(1, std::memory_order_relaxed);
        },
        static_cast<int>(EventKind::kTupleArrived));
  }
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("field"));
  world.run_for(SimTime::from_seconds(5));
  // Every node but the source sees at least one arrival.
  EXPECT_GE(reactions.load(), nodes.size() - 1);
}

#if TOTA_OBS_ENABLED  // the metrics document is empty without recording
std::string metrics_fingerprint(std::uint32_t shards, std::uint64_t seed) {
  ConvergedWorld cw(shards, seed);
  obs::MetricsRegistry merged;
  cw.world.export_metrics(merged);
  return obs::metrics_to_json(merged).dump();
}

TEST(ShardedWorldTest, MetricsAreDeterministicPerShardCount) {
  // The determinism contract: same seed + same shard count ⇒ the whole
  // merged metrics document is bit-identical, threads and all.
  EXPECT_EQ(metrics_fingerprint(4, 7), metrics_fingerprint(4, 7));
  EXPECT_EQ(metrics_fingerprint(2, 7), metrics_fingerprint(2, 7));
  // And the seed matters: a different world is a different document.
  EXPECT_NE(metrics_fingerprint(4, 7), metrics_fingerprint(4, 8));
}
#endif  // TOTA_OBS_ENABLED

// --- the emulator's dynamic worlds, at one and at several shards -------

/// True when every node's gradient replica `name` equals its BFS hop
/// distance from `source` (unreachable nodes hold none).
::testing::AssertionResult bfs_exact(const emu::ShardedWorld& world,
                                     NodeId source, const char* name) {
  const auto oracle = world.net().topology().hop_distances(source);
  const Pattern p = Pattern::of_type(GradientTuple::kTag).eq("name", name);
  for (const NodeId n : world.nodes()) {
    const auto replica = world.mw(n).read_one(p);
    const auto it = oracle.find(n);
    if (it == oracle.end()) {
      if (replica != nullptr) {
        return ::testing::AssertionFailure()
               << to_string(n) << " is unreachable but holds a replica";
      }
      continue;
    }
    if (replica == nullptr) {
      return ::testing::AssertionFailure() << to_string(n) << " missed it";
    }
    const auto hop = replica->content().at("hopcount").as_int();
    if (hop != it->second) {
      return ::testing::AssertionFailure()
             << to_string(n) << " hopcount=" << hop << " expected "
             << it->second;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(ShardedWorldTest, WiredGradientFollowsLinks) {
  for (const std::uint32_t shards : {1u, 3u}) {
    auto o = world_options(shards);
    o.net.wired = true;
    emu::ShardedWorld world(o);
    // Nodes far apart in space; only the explicit links connect them:
    // a ring of eight with one chord.
    std::vector<NodeId> ids;
    for (int i = 0; i < 8; ++i) {
      ids.push_back(world.spawn({1000.0 * i, 0.0}));
    }
    for (int i = 0; i < 8; ++i) world.net().connect(ids[i], ids[(i + 1) % 8]);
    world.net().connect(ids[0], ids[4]);
    world.mw(ids[0]).inject(std::make_unique<GradientTuple>("wired"));
    world.run_for(SimTime::from_seconds(2));
    EXPECT_TRUE(bfs_exact(world, ids[0], "wired")) << shards << " shards";
    // Cut the chord: the far side re-roots around the ring.
    world.net().disconnect(ids[0], ids[4]);
    world.run_for(SimTime::from_seconds(3));
    EXPECT_TRUE(bfs_exact(world, ids[0], "wired")) << shards << " shards";
    EXPECT_EQ(world.mw(ids[4])
                  .read_one(Pattern::of_type(GradientTuple::kTag))
                  ->content()
                  .at("hopcount")
                  .as_int(),
              4);
  }
}

/// A 6×6 grid whose nodes all drift with VelocityMobility; returns the
/// merged metrics JSON after a gradient ran across the moving field.
std::string mobile_run(std::uint32_t shards) {
  emu::ShardedWorld world(world_options(shards));
  const Rect arena{{0, 0}, {600, 600}};
  std::vector<NodeId> ids;
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      ids.push_back(world.spawn({80.0 * c, 80.0 * r},
                                std::make_unique<sim::VelocityMobility>(
                                    arena, 20.0)));
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double k = static_cast<double>(i % 7) - 3.0;
    world.net().set_velocity(ids[i], {4.0 * k, 3.0 * (3.0 - k)});
  }
  world.mw(ids[0]).inject(std::make_unique<GradientTuple>("drift"));
  world.run_for(SimTime::from_seconds(6));
  const auto metrics = world.metrics();
  EXPECT_GE(metrics.get("link.down"), recorded(1))
      << "nothing ever moved apart";
  EXPECT_GE(metrics.get("engine.store"), recorded(1));
  return obs::metrics_to_json(metrics).dump();
}

TEST(ShardedWorldTest, VelocityMobilityIsDeterministic) {
  for (const std::uint32_t shards : {1u, 3u}) {
    EXPECT_EQ(mobile_run(shards), mobile_run(shards)) << shards << " shards";
  }
}

TEST(ShardedWorldTest, MobilityStreamIgnoresShardCount) {
  // Moves draw from the world stream, so the trajectories — unlike the
  // radio's event timings — are the same at every shard count.
  auto trajectory = [](std::uint32_t shards) {
    emu::ShardedWorld world(world_options(shards));
    const Rect arena{{0, 0}, {400, 400}};
    const auto ids = world.spawn_random(
        12, arena, [&arena](Rng&) -> std::unique_ptr<sim::MobilityModel> {
          return std::make_unique<sim::RandomWaypoint>(arena, 5.0, 15.0);
        });
    world.run_for(SimTime::from_seconds(3));
    std::vector<Vec2> out;
    for (const NodeId id : ids) out.push_back(world.net().position(id));
    return out;
  };
  const auto one = trajectory(1);
  EXPECT_EQ(trajectory(2), one);
  EXPECT_EQ(trajectory(4), one);
}

TEST(ShardedWorldTest, FaultChaosConservesDatagrams) {
  for (const std::uint32_t shards : {1u, 3u}) {
    auto o = world_options(shards);
    net::FaultPlan& plan = o.net.fault;
    plan.drop = 0.2;
    plan.duplicate = 0.1;
    plan.reorder = 0.25;
    plan.reorder_window = 4;
    plan.truncate = 0.05;
    plan.corrupt = 0.05;
    plan.partitions.push_back(
        {SimTime::from_millis(1500), SimTime::from_millis(500), {}});
    emu::ShardedWorld world(o);
    const auto ids = world.spawn_grid(8, 8, 80.0);
    world.run_for(SimTime::from_seconds(1));
    world.mw(ids[0]).inject(std::make_unique<GradientTuple>("chaos"));
    world.run_for(SimTime::from_millis(700));
    world.mw(ids[63]).inject(std::make_unique<GradientTuple>("blackout"));
    // Long after the last transmission: every hold queue has drained.
    world.run_for(SimTime::from_seconds(5));

    const auto m = world.metrics();
    const auto processed = m.get("net.fault.processed");
    EXPECT_GE(processed, recorded(1));
    EXPECT_EQ(processed, m.get("net.fault.delivered") +
                             m.get("net.fault.drop") +
                             m.get("net.fault.partition_drop"))
        << shards << " shards";
    for (const char* mode : {"drop", "dup", "reorder", "truncate", "corrupt",
                             "partition_drop"}) {
      EXPECT_GE(m.get(std::string("net.fault.") + mode), recorded(1))
          << mode << " never fired at " << shards << " shards";
    }
    // Every receiver pays the faults, and a damaged frame is refused,
    // never stored.
    EXPECT_EQ(m.get("radio.rx"),
              m.get("net.fault.delivered") + m.get("net.fault.dup"));
  }
}

TEST(ShardedWorldTest, DespawnSilencesTimers) {
  for (const std::uint32_t shards : {1u, 3u}) {
    emu::ShardedWorld world(world_options(shards));
    const auto ids = world.spawn_grid(6, 6, 80.0);
    world.mw(ids[0]).inject(std::make_unique<GradientTuple>("field"));
    world.run_for(SimTime::from_seconds(2));
    // The departing nodes hold a field replica and have application
    // timers pending; none may fire once they are gone (under ASan a
    // firing timer would touch the freed stack).
    int fired = 0;
    std::vector<NodeId> gone;
    for (std::size_t i = 7; i < ids.size(); i += 5) gone.push_back(ids[i]);
    for (const NodeId n : gone) {
      for (int k = 1; k <= 3; ++k) {
        world.mw(n).platform().schedule(SimTime::from_millis(100 * k),
                                        [&fired] { ++fired; });
      }
    }
    for (const NodeId n : gone) world.despawn(n);
    world.run_for(SimTime::from_seconds(4));
    EXPECT_EQ(fired, 0) << shards << " shards";
    for (const NodeId n : gone) {
      EXPECT_FALSE(world.net().alive(n));
      EXPECT_THROW(static_cast<void>(world.mw(n)), std::invalid_argument);
    }
    EXPECT_TRUE(bfs_exact(world, ids[0], "field")) << shards << " shards";
  }
}

TEST(ShardedWorldTest, DespawnDuringHoldDownTearsDownSafely) {
  for (const std::uint32_t shards : {1u, 2u}) {
    emu::ShardedWorld world(world_options(shards));
    const auto line = world.spawn_grid(1, 6, 80.0);
    world.mw(line[0]).inject(std::make_unique<GradientTuple>("field"));
    world.run_for(SimTime::from_seconds(2));
    // Cutting the line makes the next node retract its replica and arm
    // a hold-down timer in its engine.  Despawning that node while the
    // timer is pending destroys an engine with live timers, which it
    // cancels through its platform (under ASan a platform freed first
    // would be touched here).
    const auto retracted = world.metrics().get("maint.retract_started");
    world.despawn(line[2]);
    world.run_for(SimTime::from_millis(10));
    ASSERT_GE(world.metrics().get("maint.retract_started"),
              retracted + recorded(1))
        << shards << " shards";
    world.despawn(line[3]);
    world.run_for(SimTime::from_seconds(3));
    EXPECT_TRUE(bfs_exact(world, line[0], "field")) << shards << " shards";
  }
}

TEST(ShardedWorldTest, SpawnAfterSealReachesBfsExactHops) {
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    emu::ShardedWorld world(world_options(shards));
    const auto ids = world.spawn_grid(6, 6, 80.0);
    world.mw(ids[0]).inject(std::make_unique<GradientTuple>("grow"));
    world.run_for(SimTime::from_seconds(2));
    ASSERT_TRUE(world.net().sealed());
    // Grow the world past its sealed bounding box on both sides.
    const NodeId east = world.spawn({480, 160});
    const NodeId far_east = world.spawn({560, 160});
    const NodeId west = world.spawn({-80, 0});
    world.run_for(SimTime::from_seconds(2));
    EXPECT_EQ(world.net().shard_of(east), shards - 1);
    EXPECT_EQ(world.net().shard_of(west), 0u);
    EXPECT_TRUE(bfs_exact(world, ids[0], "grow")) << shards << " shards";
    EXPECT_EQ(world.mw(west)
                  .read_one(Pattern::of_type(GradientTuple::kTag))
                  ->content()
                  .at("hopcount")
                  .as_int(),
              1);
    EXPECT_NE(
        world.mw(far_east).read_one(Pattern::of_type(GradientTuple::kTag)),
        nullptr);
  }
}

}  // namespace
}  // namespace tota
