// Soak suite: N in-process TOTA engines + discovery instances over a
// shared faulty channel, all sockets-free and fully deterministic.
//
// Two layers of coverage:
//
//   1. FaultInjector unit tests — each fault mode in isolation against
//      the FakePlatform (drop, duplicate, reorder + timer fallback,
//      truncate/corrupt, partitions and group boundaries), plus the
//      counter conservation law.
//
//   2. The soak harness — six full nodes (Middleware + Discovery) on a
//      line topology, wired through per-directed-link FaultInjectors
//      over one sim::EventQueue; every beacon and engine frame travels
//      as its own single-chunk BATCH datagram.  The run injects two
//      gradients, then turns on heavy churn (loss 0.3, dup 0.1, reorder
//      window 5, two partition windows on the only boundary-crossing
//      link), kills a source after the faults quiesce, and asserts the
//      convergence invariants the paper promises: gradient hop values
//      equal BFS ground truth, neighbour tables equal the reachability
//      graph, no tuple survives past its retraction, and the injector
//      counters obey processed == delivered + drop + partition_drop
//      with nothing left held.  Repeated for seeds {1, 2, 3}; one seed
//      is run twice to pin bit-for-bit reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "decoded_batch.h"
#include "fake_platform.h"
#include "net/datagram.h"
#include "net/discovery.h"
#include "net/fault.h"
#include "obs/hub.h"
#include "obs_expect.h"
#include "sim/event_queue.h"
#include "tota/middleware.h"
#include "tuples/all.h"
#include "tuples/gradient_tuple.h"
#include "wire/buffer.h"

namespace tota {
namespace {

using tota::testing::decode_batch;
using tota::testing::DecodedBatch;
using tota::testing::FakePlatform;
using tota::testing::recorded;

// --- FaultInjector unit tests ----------------------------------------------

wire::Bytes tagged(std::uint8_t tag) { return wire::Bytes{tag, 0xAA, 0x55}; }

/// Soak nodes are indexed 0..N-1 but NodeId{0} is the invalid id, so the
/// wire identity of node `i` is i + 1.
NodeId id_of(int i) { return NodeId{static_cast<std::uint64_t>(i) + 1}; }

TEST(FaultPlan, DefaultPlanIsBenign) {
  EXPECT_FALSE(net::FaultPlan{}.enabled());
  net::FaultPlan drop;
  drop.drop = 0.1;
  EXPECT_TRUE(drop.enabled());
  net::FaultPlan part;
  part.partitions.push_back({SimTime::zero(), SimTime::from_seconds(1), {}});
  EXPECT_TRUE(part.enabled());
  // Reorder probability without a window cannot ever fire.
  net::FaultPlan reorder;
  reorder.reorder = 0.5;
  EXPECT_FALSE(reorder.enabled());
  reorder.reorder_window = 3;
  EXPECT_TRUE(reorder.enabled());
}

TEST(FaultPlan, SeversCutsTheGroupBoundaryOnly) {
  net::FaultPlan plan;
  plan.partitions.push_back({SimTime::from_seconds(1),
                             SimTime::from_seconds(1),
                             {NodeId{1}, NodeId{2}}});
  const SimTime before = SimTime::zero();
  const SimTime inside = SimTime::from_millis(1500);
  const SimTime after = SimTime::from_seconds(2);  // [start, start+dur)

  EXPECT_FALSE(plan.severs(before, NodeId{1}, NodeId{3}));
  EXPECT_FALSE(plan.severs(after, NodeId{1}, NodeId{3}));
  // Inside the window: only paths crossing the group boundary are cut.
  EXPECT_TRUE(plan.severs(inside, NodeId{1}, NodeId{3}));
  EXPECT_TRUE(plan.severs(inside, NodeId{3}, NodeId{2}));
  EXPECT_FALSE(plan.severs(inside, NodeId{1}, NodeId{2}));  // both inside
  EXPECT_FALSE(plan.severs(inside, NodeId{3}, NodeId{4}));  // both outside
  // Unknown endpoints count as outside the group (live rx path).
  EXPECT_TRUE(plan.severs(inside, NodeId{}, NodeId{1}));
  EXPECT_FALSE(plan.severs(inside, NodeId{}, NodeId{3}));

  // An empty group severs everything, unknown endpoints included.
  net::FaultPlan blackout;
  blackout.partitions.push_back(
      {SimTime::from_seconds(1), SimTime::from_seconds(1), {}});
  EXPECT_TRUE(blackout.severs(inside, NodeId{}, NodeId{}));
  EXPECT_FALSE(blackout.severs(before, NodeId{}, NodeId{}));
}

TEST(FaultInjector, DropOneDropsEverything) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.drop = 1.0;
  net::FaultInjector inj(plan, platform, metrics);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    inj.process(tagged(0), [&](const wire::Bytes&) { ++delivered; });
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(metrics.get("net.fault.processed"), recorded(20));
  EXPECT_EQ(metrics.get("net.fault.drop"), recorded(20));
  EXPECT_EQ(metrics.get("net.fault.delivered"), 0);
}

TEST(FaultInjector, DuplicateOneDeliversEverythingTwice) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.duplicate = 1.0;
  net::FaultInjector inj(plan, platform, metrics);
  int calls = 0;
  for (int i = 0; i < 10; ++i) {
    inj.process(tagged(0), [&](const wire::Bytes&) { ++calls; });
  }
  // Duplicates are *extra* deliveries: delivered counts datagrams, dup
  // counts the extras, the sink sees both.
  EXPECT_EQ(calls, 20);
  EXPECT_EQ(metrics.get("net.fault.delivered"), recorded(10));
  EXPECT_EQ(metrics.get("net.fault.dup"), recorded(10));
}

TEST(FaultInjector, TruncateAndCorruptDamageButStillDeliver) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.truncate = 1.0;
  const wire::Bytes original = tagged(7);
  {
    net::FaultInjector inj(plan, platform, metrics);
    std::size_t delivered_size = original.size();
    inj.process(original,
                [&](const wire::Bytes& b) { delivered_size = b.size(); });
    EXPECT_LT(delivered_size, original.size());
  }
  EXPECT_EQ(metrics.get("net.fault.truncate"), recorded(1));
  EXPECT_EQ(metrics.get("net.fault.delivered"), recorded(1));

  net::FaultPlan flip;
  flip.corrupt = 1.0;
  net::FaultInjector inj(flip, platform, metrics);
  wire::Bytes got;
  inj.process(original, [&](const wire::Bytes& b) { got = b; });
  ASSERT_EQ(got.size(), original.size());
  int differing_bits = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    differing_bits += __builtin_popcount(got[i] ^ original[i]);
  }
  EXPECT_EQ(differing_bits, 1);  // exactly one flipped bit
  EXPECT_EQ(metrics.get("net.fault.corrupt"), recorded(1));
}

TEST(FaultInjector, ReorderReleasesAfterOvertakesAndPreservesContent) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.reorder = 0.5;
  plan.reorder_window = 3;
  net::FaultInjector inj(plan, platform, metrics);

  std::vector<std::uint8_t> order;
  constexpr int kCount = 100;
  for (int i = 0; i < kCount; ++i) {
    inj.process(tagged(static_cast<std::uint8_t>(i)),
                [&](const wire::Bytes& b) { order.push_back(b[0]); });
  }
  inj.flush();
  EXPECT_EQ(inj.held(), 0u);

  // Every datagram arrived exactly once (a permutation: reordering never
  // loses or duplicates)...
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCount));
  auto sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
  // ...and some genuinely out of order.
  EXPECT_GE(metrics.get("net.fault.reorder"), recorded(1));
  bool disordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) disordered = true;
  }
  EXPECT_TRUE(disordered);
  // Conservation with nothing dropped: everything was delivered.
  EXPECT_EQ(metrics.get("net.fault.delivered"), recorded(kCount));
}

TEST(FaultInjector, TrafficLullDrainsHeldDatagramsViaTimer) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.reorder = 1.0;  // everything is held; nothing ever overtakes
  plan.reorder_window = 5;
  net::FaultInjector inj(plan, platform, metrics);

  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    inj.process(tagged(static_cast<std::uint8_t>(i)),
                [&](const wire::Bytes&) { ++delivered; });
  }
  EXPECT_EQ(inj.held(), 3u);
  EXPECT_EQ(delivered, 0);
  // The hold timer fires at now + reorder_max_hold and releases the
  // whole batch (same deadline); nothing stays pinned by the lull.
  platform.run_scheduled();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(inj.held(), 0u);
}

TEST(FaultInjector, PartitionWindowSeversThenHeals) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.partitions.push_back(
      {SimTime::from_seconds(1), SimTime::from_seconds(1), {}});
  net::FaultInjector inj(plan, platform, metrics);

  int delivered = 0;
  const auto sink = [&](const wire::Bytes&) { ++delivered; };
  inj.process(tagged(0), sink);  // before the window
  platform.time = SimTime::from_millis(1500);
  inj.process(tagged(1), sink);  // inside: severed
  platform.time = SimTime::from_seconds(2);
  inj.process(tagged(2), sink);  // healed
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(metrics.get("net.fault.partition_drop"), recorded(1));
  EXPECT_EQ(metrics.get("net.fault.processed"),
            metrics.get("net.fault.delivered") +
                metrics.get("net.fault.partition_drop"));
}

TEST(FaultInjector, ChaosObeysTheConservationLaw) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.2;
  plan.reorder = 0.3;
  plan.reorder_window = 4;
  plan.truncate = 0.2;
  plan.corrupt = 0.2;
  net::FaultInjector inj(plan, platform, metrics);

  std::int64_t sink_calls = 0;
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    inj.process(tagged(static_cast<std::uint8_t>(i)),
                [&](const wire::Bytes&) { ++sink_calls; });
  }
  inj.flush();
  EXPECT_EQ(metrics.get("net.fault.processed"), recorded(kCount));
  EXPECT_EQ(metrics.get("net.fault.processed"),
            metrics.get("net.fault.delivered") +
                metrics.get("net.fault.drop") +
                metrics.get("net.fault.partition_drop"));
  EXPECT_EQ(metrics.get("net.fault.delivered") + metrics.get("net.fault.dup"),
            recorded(sink_calls));
  // With 500 datagrams at these rates every fault mode actually fired.
  EXPECT_GE(metrics.get("net.fault.drop"), recorded(1));
  EXPECT_GE(metrics.get("net.fault.dup"), recorded(1));
  EXPECT_GE(metrics.get("net.fault.reorder"), recorded(1));
  EXPECT_GE(metrics.get("net.fault.truncate"), recorded(1));
  EXPECT_GE(metrics.get("net.fault.corrupt"), recorded(1));
}

// --- the soak harness ------------------------------------------------------

/// tota::Platform over a shared sim::EventQueue: every node (and the
/// channel itself) schedules against one deterministic virtual clock.
class QueuePlatform final : public Platform {
 public:
  QueuePlatform(sim::EventQueue& events, Rng rng,
                std::function<void(wire::Bytes)> on_broadcast = nullptr)
      : events_(events), rng_(rng), on_broadcast_(std::move(on_broadcast)) {}

  void broadcast(wire::Bytes payload) override {
    if (on_broadcast_) on_broadcast_(std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return events_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(TimerId id) override { events_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  sim::EventQueue& events_;
  Rng rng_;
  std::function<void(wire::Bytes)> on_broadcast_;
};

constexpr int kNodes = 6;
constexpr SimTime kLinkDelay = SimTime::from_millis(2);

/// Six nodes on a line (index adjacency |i-j| == 1), each a full stack:
/// Middleware + Discovery over a QueuePlatform, wired through one
/// FaultInjector per *directed* link so each path misbehaves
/// independently.  The channel is the soak's stand-in for the radio: it
/// wraps engine frames as kData datagrams, carries HELLOs verbatim, and
/// routes by the line adjacency with a fixed per-hop delay.
class SoakWorld {
 public:
  explicit SoakWorld(std::uint64_t seed)
      : master_(seed), channel_platform_(events_, master_.fork()) {
    tuples::register_standard_tuples();

    net::FaultPlan plan;
    plan.drop = 0.3;
    plan.duplicate = 0.1;
    plan.reorder = 0.25;
    plan.reorder_window = 5;
    plan.truncate = 0.05;
    plan.corrupt = 0.05;
    // Two blackout windows on the one link crossing the group boundary
    // (ids 1..4 vs 5..6, i.e. the line's 3↔4 index link).  The second
    // window ends exactly when the fault phase does, so the partition
    // heals on a reliable channel and re-propagation re-coheres both
    // sides deterministically.
    const std::vector<NodeId> left{NodeId{1}, NodeId{2}, NodeId{3},
                                   NodeId{4}};
    plan.partitions.push_back(
        {SimTime::from_seconds(3), SimTime::from_seconds(1), left});
    plan.partitions.push_back(
        {SimTime::from_millis(8500), SimTime::from_millis(1500), left});

    for (int i = 0; i < kNodes; ++i) {
      nodes_.push_back(std::make_unique<Node>(*this, i));
    }
    for (int i = 0; i < kNodes; ++i) {
      for (const int j : neighbors_of(i)) {
        links_.emplace(key(i, j), std::make_unique<net::FaultInjector>(
                                      plan, channel_platform_, hub_.metrics));
      }
    }
  }

  /// The scripted scenario; every control event rides the same queue.
  void run() {
    for (auto& n : nodes_) n->disc->start();
    events_.schedule_at(SimTime::from_seconds(1), [this] {
      nodes_[0]->mw.inject(
          std::make_unique<tuples::GradientTuple>("main"));
    });
    events_.schedule_at(SimTime::from_millis(1200), [this] {
      nodes_[kNodes - 1]->mw.inject(
          std::make_unique<tuples::GradientTuple>("doomed"));
    });
    events_.schedule_at(SimTime::from_seconds(2),
                        [this] { faulty_ = chaos_enabled; });
    events_.schedule_at(SimTime::from_seconds(10), [this] {
      // Quiesce: faults off first, then flush — released datagrams must
      // not re-enter the injectors.
      faulty_ = false;
      for (auto& [k, inj] : links_) inj->flush();
    });
    // Post-outage restart storm, in two parity waves.  Every node's
    // beacon daemon comes back beaconing from seq 0; the opposite
    // parity still holds the old session, detects the regression, and
    // resyncs (down + up + re-propagation).  Two waves, because two
    // simultaneously-restarted endpoints have both forgotten each other
    // and would resync nothing; on a line, neighbours always have
    // opposite parity, so each wave is observed by every neighbour.
    events_.schedule_at(SimTime::from_millis(11300), [this] {
      for (int i = 0; i < kNodes; i += 2) restart_discovery(i);
    });
    events_.schedule_at(SimTime::from_seconds(12), [this] {
      for (int i = 1; i < kNodes; i += 2) restart_discovery(i);
    });
    // The doomed gradient's source dies *after* the network calms and
    // resyncs, so the retraction cascade must drain a coherent field
    // completely — any surviving replica is a leak.
    events_.schedule_at(SimTime::from_millis(12500),
                        [this] { kill(kNodes - 1); });
    events_.run_until(SimTime::from_seconds(14));
  }

  [[nodiscard]] bool alive(int i) const { return nodes_[i]->alive; }
  [[nodiscard]] Middleware& mw(int i) { return nodes_[i]->mw; }
  [[nodiscard]] net::Discovery& disc(int i) { return *nodes_[i]->disc; }
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  [[nodiscard]] std::size_t total_held() const {
    std::size_t n = 0;
    for (const auto& [k, inj] : links_) n += inj->held();
    return n;
  }
  [[nodiscard]] static std::vector<int> neighbors_of(int i) {
    std::vector<int> out;
    if (i > 0) out.push_back(i - 1);
    if (i + 1 < kNodes) out.push_back(i + 1);
    return out;
  }

 private:
  struct Node {
    Node(SoakWorld& w, int i)
        : platform(w.events_, w.master_.fork(),
                   [&w, i](wire::Bytes frame) {
                     w.send(i,
                            one_chunk(i, net::Datagram::chunk_data(frame)));
                   }),
          mw(id_of(i), platform, {}, &w.hub_) {
      make_discovery(w, i);
    }

    /// (Re)creates the discovery instance — a fresh one beacons from
    /// seq 0, which is exactly what a restarted daemon looks like on
    /// the air.
    void make_discovery(SoakWorld& w, int i) {
      disc = std::make_unique<net::Discovery>(
          id_of(i), platform, discovery_options(),
          [&w, i](std::uint64_t seq, SimTime period) {
            w.send(i, one_chunk(i, net::Datagram::chunk_hello(seq, period)));
          },
          w.hub_.metrics);
      disc->on_neighbor_up([this](NodeId n) { mw.on_neighbor_up(n); });
      disc->on_neighbor_down([this](NodeId n) { mw.on_neighbor_down(n); });
    }

    QueuePlatform platform;
    Middleware mw;
    std::unique_ptr<net::Discovery> disc;
    bool alive = true;
  };

  [[nodiscard]] static net::DiscoveryOptions discovery_options() {
    net::DiscoveryOptions o;
    o.beacon_period = SimTime::from_millis(100);
    o.expiry_missed_beacons = 3;
    return o;
  }

  /// Models a beacon-daemon restart on node `i`: the replacement
  /// instance beacons from seq 0, so every peer sees a deep seq
  /// regression, tears the old session down, and re-announces — which
  /// makes the peers' engines re-propagate their tuples (the
  /// restart-resync path under test, and the anti-entropy event an
  /// event-driven middleware needs after an outage of silent losses).
  void restart_discovery(int i) {
    if (!nodes_[i]->alive) return;
    nodes_[i]->make_discovery(*this, i);
    nodes_[i]->disc->start();
  }

  /// Each beacon and each engine frame leaves node `i` as its own
  /// single-chunk BATCH datagram — no coalescing, so the injectors see
  /// one datagram per logical message.
  [[nodiscard]] static wire::Bytes one_chunk(int i,
                                             const net::EncodedChunk& chunk) {
    return net::Datagram::batch(id_of(i), {&chunk, 1});
  }

  [[nodiscard]] static int key(int i, int j) { return i * kNodes + j; }
  [[nodiscard]] net::FaultInjector& link(int i, int j) {
    return *links_.at(key(i, j));
  }

  /// One already-encoded datagram leaves node `i` toward each line
  /// neighbour, through that directed link's injector while the fault
  /// phase is on.
  void send(int i, wire::Bytes bytes) {
    if (!nodes_[i]->alive) return;
    for (const int j : neighbors_of(i)) {
      const auto deliver = [this, j](const wire::Bytes& damaged) {
        const auto copy = std::make_shared<const wire::Bytes>(damaged);
        events_.schedule_after(kLinkDelay,
                               [this, j, copy] { receive(j, *copy); });
      };
      if (faulty_) {
        link(i, j).process(bytes, deliver, id_of(i), id_of(j));
      } else {
        deliver(bytes);
      }
    }
  }

  void receive(int j, const wire::Bytes& bytes) {
    if (!nodes_[j]->alive) return;
    DecodedBatch d;
    try {
      d = decode_batch(bytes);
    } catch (const wire::DecodeError&) {
      return;  // truncated/corrupted past recognition
    }
    if (d.sender == id_of(j)) return;  // own echo
    for (const net::Chunk& chunk : d.chunks) {
      switch (chunk.kind) {
        case net::ChunkKind::kHello:
          nodes_[j]->disc->on_hello(d.sender, chunk.seq, chunk.period);
          break;
        case net::ChunkKind::kData:
          nodes_[j]->mw.on_datagram(d.sender, chunk.payload);
          break;
        default:
          break;  // this harness sends no REL/ACK/DIGEST chunks
      }
    }
  }

  void kill(int i) {
    nodes_[i]->alive = false;
    nodes_[i]->disc->stop();
  }

 public:
  /// Set false before run() for the benign control run: the scenario
  /// plays out identically but the injectors are never consulted.
  bool chaos_enabled = true;

 private:
  sim::EventQueue events_;
  Rng master_;
  obs::Hub hub_;
  QueuePlatform channel_platform_;  // clock + rng source for the injectors
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<int, std::unique_ptr<net::FaultInjector>> links_;
  bool faulty_ = false;
};

/// A per-seed result snapshot, comparable across runs for determinism.
struct SoakSnapshot {
  std::vector<std::int64_t> hops;  // main-gradient hop per alive node
  std::int64_t processed = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped = 0;

  bool operator==(const SoakSnapshot&) const = default;
};

void run_soak_and_assert(std::uint64_t seed, bool chaos = true,
                         SoakSnapshot* out = nullptr) {
  SoakWorld world(seed);
  world.chaos_enabled = chaos;
  world.run();
  SoakSnapshot snap;

  const Pattern main_p =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "main");
  const Pattern doomed_p =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "doomed");

  for (int i = 0; i < kNodes; ++i) {
    if (!world.alive(i)) continue;
    // Gradient hop values equal the BFS ground truth: on a line with the
    // source at index 0, node i sits exactly i hops out.
    const auto replica = world.mw(i).read_one(main_p);
    ASSERT_NE(replica, nullptr) << "seed " << seed << ": node " << i
                                << " lost the main gradient";
    const auto hop = replica->content().at("hopcount").as_int();
    EXPECT_EQ(hop, i) << "seed " << seed << ": node " << i;
    snap.hops.push_back(hop);

    // No tuple leaks past its retraction: the doomed gradient's source
    // died and the cascade must have drained every replica.
    EXPECT_TRUE(world.mw(i).read(doomed_p).empty())
        << "seed " << seed << ": node " << i << " leaked the doomed tuple";

    // Neighbour tables equal the reachability graph.
    auto got = world.disc(i).neighbors();
    std::sort(got.begin(), got.end());
    std::vector<NodeId> expected;
    for (const int j : SoakWorld::neighbors_of(i)) {
      if (world.alive(j)) expected.push_back(id_of(j));
    }
    EXPECT_EQ(got, expected) << "seed " << seed << ": node " << i;
  }

  // Metrics conservation: every datagram the injectors saw is accounted
  // for, and the flush left nothing in flight.
  auto& m = world.hub().metrics;
  snap.processed = m.get("net.fault.processed");
  snap.delivered = m.get("net.fault.delivered");
  snap.dropped = m.get("net.fault.drop");
  EXPECT_EQ(snap.processed,
            snap.delivered + snap.dropped + m.get("net.fault.partition_drop"));
  EXPECT_EQ(world.total_held(), 0u);
  if (chaos) {
    // The chaos was real, not vacuously converged...
    EXPECT_GE(snap.dropped, recorded(1));
    EXPECT_GE(m.get("net.fault.reorder"), recorded(1));
    EXPECT_GE(m.get("net.fault.partition_drop"), recorded(1));
    EXPECT_GE(m.get("net.fault.dup"), recorded(1));
    // ...and the discovery hardening earned its keep: reordered beacons
    // were recognised as stale, and the post-outage restart storm went
    // through the seq-regression path.
    EXPECT_GE(m.get("net.hello.stale"), recorded(1));
    EXPECT_GE(m.get("net.hello.restart"), recorded(1));
  }
  if (out != nullptr) *out = snap;
}

// The control run: the harness itself, faults never enabled, must
// satisfy every invariant — otherwise a converging chaos run proves
// nothing about the middleware.
TEST(Soak, BenignControlRunConverges) {
  run_soak_and_assert(1, /*chaos=*/false);
}

TEST(Soak, ConvergesUnderChurnSeed1) { run_soak_and_assert(1); }
TEST(Soak, ConvergesUnderChurnSeed2) { run_soak_and_assert(2); }
TEST(Soak, ConvergesUnderChurnSeed3) { run_soak_and_assert(3); }

TEST(Soak, IdenticalSeedsProduceIdenticalRuns) {
  SoakSnapshot a, b;
  run_soak_and_assert(1, /*chaos=*/true, &a);
  run_soak_and_assert(1, /*chaos=*/true, &b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tota
