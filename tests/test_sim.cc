// Unit tests for the simulator substrate: event queue, topology,
// mobility models, radio.  The simulator itself is tested in
// tests/test_shard.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/radio.h"
#include "sim/topology.h"

namespace tota::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  q.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  q.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  q.run_until(SimTime{100});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime{100});
}

TEST(EventQueueTest, SameInstantFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime{5}, [&order, i] { order.push_back(i); });
  }
  q.run_until(SimTime{5});
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule_at(SimTime{10}, [&] { fired = true; });
  q.cancel(id);
  q.run_until(SimTime{100});
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_after(SimTime{10}, chain);
  };
  q.schedule_at(SimTime{0}, chain);
  q.run_until(SimTime{100});
  EXPECT_EQ(count, 5);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  bool late_fired = false;
  q.schedule_at(SimTime{50}, [&] { late_fired = true; });
  q.run_until(SimTime{49});
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(q.now(), SimTime{49});
  q.run_until(SimTime{50});
  EXPECT_TRUE(late_fired);
}

TEST(EventQueueTest, NextEventTimePeeksWithoutRunning) {
  EventQueue q;
  EXPECT_FALSE(q.next_event_time().has_value());
  q.schedule_at(SimTime{30}, [] {});
  const EventId early = q.schedule_at(SimTime{10}, [] {});
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_EQ(*q.next_event_time(), SimTime{10});
  // Cancelled tombstones at the top of the heap must be skipped.
  q.cancel(early);
  ASSERT_TRUE(q.next_event_time().has_value());
  EXPECT_EQ(*q.next_event_time(), SimTime{30});
  q.run_until(SimTime{100});
  EXPECT_FALSE(q.next_event_time().has_value());
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue q;
  q.schedule_at(SimTime{10}, [] {});
  q.run_until(SimTime{20});
  EXPECT_THROW(q.schedule_at(SimTime{5}, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, StaleIdCannotCancelTheSlotsNextEvent) {
  EventQueue q;
  bool first = false;
  bool second = false;
  const EventId stale = q.schedule_at(SimTime{10}, [&] { first = true; });
  q.cancel(stale);
  // The freed slot is reused by the next event, under a new generation.
  const EventId fresh = q.schedule_at(SimTime{20}, [&] { second = true; });
  EXPECT_EQ(q.slot_count(), 1u);
  EXPECT_NE(fresh, stale);
  q.cancel(stale);  // stale handle: must leave the new tenant alone
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(SimTime{100});
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventQueueTest, IdsAreNeverZeroAndNeverRepeat) {
  EventQueue q;
  std::unordered_set<EventId> seen;
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> batch;
    for (int i = 0; i < 10; ++i) {
      batch.push_back(q.schedule_after(SimTime{i}, [] {}));
    }
    // Cancel half, fire the rest: every slot is freed and reused.
    for (std::size_t i = 0; i < batch.size(); i += 2) q.cancel(batch[i]);
    q.run_until(q.now() + SimTime{100});
    for (const EventId id : batch) {
      EXPECT_NE(id, 0u);  // Platform::kInvalidTimer
      EXPECT_TRUE(seen.insert(id).second) << "id " << id << " repeated";
    }
  }
  EXPECT_LE(q.slot_count(), 10u);
}

TEST(EventQueueTest, PendingAndEmptyStayExact) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  int fired = 0;
  const EventId a = q.schedule_at(SimTime{10}, [&] { ++fired; });
  const EventId b = q.schedule_at(SimTime{20}, [&] { ++fired; });
  q.schedule_at(SimTime{30}, [&] { ++fired; });
  EXPECT_EQ(q.pending(), 3u);
  q.cancel(b);
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(b);  // double cancel counts once
  EXPECT_EQ(q.pending(), 2u);
  ASSERT_TRUE(q.step());  // fires a
  q.schedule_at(SimTime{40}, [&] { ++fired; });  // may reuse a's slot
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);  // already fired: does nothing
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_FALSE(q.empty());
  q.run_until(SimTime{100});
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueueTest, CancelOwnedSilencesOnlyThatOwner) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule_at(SimTime{10}, [&] { fired.push_back(1); }, 7);
  q.schedule_at(SimTime{20}, [&] { fired.push_back(2); }, 8);
  q.schedule_at(SimTime{30}, [&] { fired.push_back(3); });  // untagged
  const EventId gone =
      q.schedule_at(SimTime{40}, [&] { fired.push_back(4); }, 7);
  q.cancel_owned(7);
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(gone);  // already cancelled: no-op
  // A freed slot's next tenant starts untagged.
  q.schedule_at(SimTime{50}, [&] { fired.push_back(5); });
  q.cancel_owned(7);
  q.cancel_owned(0);  // 0 is "untagged", never an owner
  q.run_until(SimTime{100});
  EXPECT_EQ(fired, (std::vector<int>{2, 3, 5}));
}

TEST(EventQueueTest, SlotTableNeverOutgrowsPeakLiveEvents) {
  EventQueue q;
  Rng rng(4242);
  std::vector<EventId> live;
  std::size_t peak = 0;
  std::size_t fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    const auto op = rng.below(10);
    if (op < 6) {
      live.push_back(q.schedule_after(SimTime{1 + static_cast<std::int64_t>(
                                                      rng.below(1000))},
                                      [&fired] { ++fired; }));
    } else if (op < 9 && !live.empty()) {
      const auto k = rng.below(live.size());
      q.cancel(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      q.step();
    }
    // Ids of fired events linger in `live`; cancelling them is a no-op,
    // so pending() is the exact count of the rest.
    peak = std::max(peak, q.pending());
    ASSERT_LE(q.slot_count(), peak) << "after op " << i;
  }
  q.run_until(q.now() + SimTime{10'000});
  EXPECT_TRUE(q.empty());
  EXPECT_GT(fired, 0u);
}

TEST(TopologyTest, NeighborsWithinRange) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {5, 0});
  topo.add(NodeId{3}, {20, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}), (std::vector<NodeId>{NodeId{2}}));
  EXPECT_TRUE(topo.neighbors(NodeId{3}).empty());
}

TEST(TopologyTest, RangeBoundaryIsInclusive) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {10, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, MoveUpdatesNeighbors) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {50, 0});
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.move(NodeId{2}, {7, 0});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, MoveAcrossGridCells) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  // Drag node 2 across several cells and verify the index tracks it.
  topo.add(NodeId{2}, {100, 100});
  for (double x = 100; x >= 0; x -= 9) topo.move(NodeId{2}, {x, x});
  topo.move(NodeId{2}, {3, 3});
  EXPECT_EQ(topo.neighbors(NodeId{1}).size(), 1u);
}

TEST(TopologyTest, RemoveForgetsNode) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {1, 0});
  topo.remove(NodeId{2});
  EXPECT_FALSE(topo.contains(NodeId{2}));
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  EXPECT_THROW(topo.position(NodeId{2}), std::invalid_argument);
}

TEST(TopologyTest, DuplicateAddThrows) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  EXPECT_THROW(topo.add(NodeId{1}, {1, 1}), std::invalid_argument);
}

TEST(TopologyTest, HopDistancesMatchLineGraph) {
  Topology topo(10.0);
  for (int i = 0; i < 6; ++i) {
    topo.add(NodeId{static_cast<std::uint64_t>(i + 1)},
             {static_cast<double>(i) * 8.0, 0});
  }
  const auto dist = topo.hop_distances(NodeId{1});
  ASSERT_EQ(dist.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(dist.at(NodeId{static_cast<std::uint64_t>(i + 1)}), i);
  }
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{6}), 5);
}

TEST(TopologyTest, DisconnectedIsDetected) {
  Topology topo(10.0);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {100, 0});
  EXPECT_FALSE(topo.connected());
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{2}), std::nullopt);
  topo.add(NodeId{3}, {50, 0});
  EXPECT_FALSE(topo.connected());
}

TEST(MobilityTest, StaticStaysPut) {
  StaticMobility m;
  Rng rng(1);
  EXPECT_EQ(m.step({3, 4}, SimTime::from_seconds(10), rng), (Vec2{3, 4}));
}

TEST(MobilityTest, WaypointToReachesTarget) {
  WaypointTo m(10.0);  // 10 m/s
  Rng rng(1);
  m.set_target({100, 0});
  Vec2 pos{0, 0};
  pos = m.step(pos, SimTime::from_seconds(1), rng);
  EXPECT_NEAR(pos.x, 10.0, 1e-9);
  EXPECT_FALSE(m.idle());
  pos = m.step(pos, SimTime::from_seconds(20), rng);
  EXPECT_EQ(pos, (Vec2{100, 0}));
  EXPECT_TRUE(m.idle());
}

TEST(MobilityTest, RandomWaypointStaysInArena) {
  const Rect arena{{0, 0}, {100, 100}};
  RandomWaypoint m(arena, 1.0, 5.0);
  Rng rng(42);
  Vec2 pos{50, 50};
  for (int i = 0; i < 500; ++i) {
    pos = m.step(pos, SimTime::from_millis(100), rng);
    ASSERT_TRUE(arena.contains(pos)) << to_string(pos);
  }
}

TEST(MobilityTest, RandomWaypointActuallyMoves) {
  const Rect arena{{0, 0}, {100, 100}};
  RandomWaypoint m(arena, 2.0, 2.0);
  Rng rng(7);
  const Vec2 start{50, 50};
  Vec2 pos = start;
  for (int i = 0; i < 100; ++i) pos = m.step(pos, SimTime::from_millis(100), rng);
  EXPECT_GT(distance(start, pos), 0.0);
}

TEST(MobilityTest, VelocityMobilityIntegratesAndClamps) {
  const Rect arena{{0, 0}, {100, 100}};
  VelocityMobility m(arena, 5.0);
  Rng rng(1);
  m.set_velocity({3, 4});  // norm 5, at the cap
  Vec2 pos = m.step({0, 0}, SimTime::from_seconds(1), rng);
  EXPECT_NEAR(pos.x, 3.0, 1e-9);
  EXPECT_NEAR(pos.y, 4.0, 1e-9);
  m.set_velocity({30, 40});  // above cap: scaled to 5 m/s
  EXPECT_NEAR(m.velocity().norm(), 5.0, 1e-9);
  pos = m.step({99, 99}, SimTime::from_seconds(10), rng);
  EXPECT_TRUE(arena.contains(pos));
}

TEST(RadioTest, DelayIncludesSerializationAtFiniteBandwidth) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(1);
  params.jitter = SimTime::zero();
  params.bandwidth_bps = 8000.0;  // 1 byte per millisecond
  Radio radio(params);
  Rng rng(1);
  EXPECT_EQ(radio.delay(rng, 0).millis(), 1.0);
  EXPECT_EQ(radio.delay(rng, 100).millis(), 101.0);
}

TEST(RadioTest, InfiniteBandwidthIgnoresPayloadSize) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(2);
  params.jitter = SimTime::zero();
  Radio radio(params);
  Rng rng(1);
  EXPECT_EQ(radio.delay(rng, 1 << 20), radio.delay(rng, 0));
}

TEST(RadioTest, JitterBoundsTheDelay) {
  RadioParams params;
  params.base_delay = SimTime::from_millis(2);
  params.jitter = SimTime::from_millis(3);
  Radio radio(params);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const SimTime d = radio.delay(rng, 0);
    EXPECT_GE(d, SimTime::from_millis(2));
    EXPECT_LT(d, SimTime::from_millis(5));
  }
}

TEST(WiredTopologyTest, ExplicitLinksDefineNeighborhood) {
  Topology topo(100.0, Topology::Mode::kExplicit);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {5, 0});     // physically adjacent…
  topo.add(NodeId{3}, {5000, 0});  // …and physically far
  // …but only the explicit links matter.
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.add_link(NodeId{1}, NodeId{3});
  EXPECT_EQ(topo.neighbors(NodeId{1}), std::vector<NodeId>{NodeId{3}});
  EXPECT_EQ(topo.neighbors(NodeId{3}), std::vector<NodeId>{NodeId{1}});
  EXPECT_TRUE(topo.neighbors(NodeId{2}).empty());
}

TEST(WiredTopologyTest, RemoveLinkAndNode) {
  Topology topo(100.0, Topology::Mode::kExplicit);
  topo.add(NodeId{1}, {0, 0});
  topo.add(NodeId{2}, {1, 0});
  topo.add(NodeId{3}, {2, 0});
  topo.add_link(NodeId{1}, NodeId{2});
  topo.add_link(NodeId{2}, NodeId{3});
  topo.remove_link(NodeId{1}, NodeId{2});
  EXPECT_TRUE(topo.neighbors(NodeId{1}).empty());
  topo.remove(NodeId{2});
  EXPECT_TRUE(topo.neighbors(NodeId{3}).empty());
}

TEST(WiredTopologyTest, GuardsAgainstMisuse) {
  Topology disc(100.0);
  disc.add(NodeId{1}, {0, 0});
  disc.add(NodeId{2}, {1, 0});
  EXPECT_THROW(disc.add_link(NodeId{1}, NodeId{2}), std::logic_error);

  Topology wired(100.0, Topology::Mode::kExplicit);
  wired.add(NodeId{1}, {0, 0});
  EXPECT_THROW(wired.add_link(NodeId{1}, NodeId{9}), std::invalid_argument);
  EXPECT_THROW(wired.add_link(NodeId{1}, NodeId{1}), std::invalid_argument);
}

TEST(WiredTopologyTest, HopDistancesFollowLinks) {
  Topology topo(1.0, Topology::Mode::kExplicit);
  for (std::uint64_t i = 1; i <= 4; ++i) topo.add(NodeId{i}, {0, 0});
  topo.add_link(NodeId{1}, NodeId{2});
  topo.add_link(NodeId{2}, NodeId{3});
  topo.add_link(NodeId{3}, NodeId{4});
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{4}), 3);
  topo.add_link(NodeId{1}, NodeId{4});  // shortcut
  EXPECT_EQ(topo.hop_distance(NodeId{1}, NodeId{4}), 1);
}

}  // namespace
}  // namespace tota::sim
