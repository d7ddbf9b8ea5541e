// Self-maintenance tests: the distributed structures must track topology
// changes — node churn, movement, partition — automatically ("the
// middleware automatically re-propagates tuples as soon as appropriate
// conditions occur … the distributed tuple structure automatically
// changes to reflect the new topology").
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "emu/sharded_world.h"
#include "tota/neighbor_table.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

emu::ShardedWorld::Options options(std::uint64_t seed = 5) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = seed;
  return o;
}

/// True when every node's gradient replica equals its BFS distance from
/// `source` (and nodes disconnected from the source hold no replica).
::testing::AssertionResult field_coherent(const emu::ShardedWorld& world,
                                          NodeId source) {
  const auto oracle = world.net().topology().hop_distances(source);
  const Pattern p = Pattern::of_type(GradientTuple::kTag);
  for (const NodeId n : world.nodes()) {
    const auto replica = world.mw(n).read_one(p);
    const auto expected = oracle.find(n);
    if (expected == oracle.end()) {
      if (replica) {
        return ::testing::AssertionFailure()
               << to_string(n) << " unreachable but holds "
               << replica->str();
      }
      continue;
    }
    if (!replica) {
      return ::testing::AssertionFailure()
             << to_string(n) << " reachable (d=" << expected->second
             << ") but holds nothing";
    }
    const auto got = replica->content().at("hopcount").as_int();
    if (got != expected->second) {
      return ::testing::AssertionFailure()
             << to_string(n) << " hopcount=" << got << " expected "
             << expected->second;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MaintenanceTest, FieldRepairsAfterRelayNodeDies) {
  emu::ShardedWorld world(options());
  // A line: source - r1 - r2 - tail; killing r1 must reroute... a line has
  // no alternative path, so the tail should *lose* the field instead.
  const NodeId source = world.spawn({0, 0});
  const NodeId r1 = world.spawn({80, 0});
  const NodeId r2 = world.spawn({160, 0});
  const NodeId tail = world.spawn({240, 0});
  world.run_for(SimTime::from_seconds(1));
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_TRUE(field_coherent(world, source));

  world.despawn(r1);
  world.run_for(SimTime::from_seconds(3));
  EXPECT_TRUE(field_coherent(world, source));
  EXPECT_TRUE(world.mw(r2).read(Pattern{}).empty());
  EXPECT_TRUE(world.mw(tail).read(Pattern{}).empty());
}

TEST(MaintenanceTest, FieldRepairsAroundAHole) {
  emu::ShardedWorld world(options());
  // A 3x5 grid: killing an interior relay leaves alternative paths, so
  // every survivor must re-converge to the *new* BFS distances.
  const auto nodes = world.spawn_grid(3, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));
  const NodeId source = nodes[0];
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_TRUE(field_coherent(world, source));

  world.despawn(nodes[6]);  // middle of the grid
  world.run_for(SimTime::from_seconds(4));
  EXPECT_TRUE(field_coherent(world, source));
}

TEST(MaintenanceTest, ValuesStretchWhenShortcutDisappears) {
  emu::ShardedWorld world(options());
  // A ring with a chord: the chord gives short distances; removing it
  // must *increase* stored hopcounts (the hard direction for monotone
  // updates — requires retraction, not supersede).
  //
  //   source(0,0) — b(80,0) — c(160,0) — d(240,0)
  //        \_________________________________/
  //                long way: e(120,-90) sits below, linking source-…-d?
  //
  // Simpler: line source-b-c-d plus a direct bridge node x linking source
  // and d; removing x forces d from 2 hops to 3.
  const NodeId source = world.spawn({0, 0});
  const NodeId b = world.spawn({80, 0});
  const NodeId c = world.spawn({160, 0});
  const NodeId d = world.spawn({240, 0});
  // Bridge within range of both source and d is impossible at range 100
  // over 240 m; instead bridge source—mid—d with mid reachable from both.
  const NodeId mid = world.spawn({120, 60});  // ~134 from source: too far
  world.despawn(mid);
  const NodeId bridge1 = world.spawn({70, 60});
  const NodeId bridge2 = world.spawn({170, 60});
  world.run_for(SimTime::from_seconds(1));
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_TRUE(field_coherent(world, source));

  // Removing both bridges leaves only the line; d's distance grows 3→3?
  // (bridge path source-b1-b2-d is 3 hops, line is 3 hops) — remove b to
  // force the line through the bridges instead.
  world.despawn(b);
  world.run_for(SimTime::from_seconds(4));
  EXPECT_TRUE(field_coherent(world, source));
  (void)c;
  (void)d;
  (void)bridge1;
  (void)bridge2;
}

TEST(MaintenanceTest, FieldFollowsAMovingSource) {
  emu::ShardedWorld world(options());
  const auto nodes = world.spawn_grid(1, 5, 80.0);  // a line
  // The source starts at the left end and teleports to the right end.
  const NodeId source = world.spawn({-80, 0});
  world.run_for(SimTime::from_seconds(1));
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_TRUE(field_coherent(world, source));

  world.net().move_node(source, {5 * 80.0, 0});  // drag to the other end
  world.run_for(SimTime::from_seconds(4));
  EXPECT_TRUE(field_coherent(world, source));
  // The far-left node now reads distance 5, not 1.
  const auto replica =
      world.mw(nodes[0]).read_one(Pattern::of_type(GradientTuple::kTag));
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->content().at("hopcount").as_int(), 5);
}

TEST(MaintenanceTest, PartitionClearsTheOrphanSide) {
  emu::ShardedWorld world(options());
  const auto line = world.spawn_grid(1, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(line[0]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));

  // Cut the line in the middle: nodes 3..5 lose their support chain and
  // must drop their replicas (no stale context).
  world.despawn(line[2]);
  world.run_for(SimTime::from_seconds(3));
  for (std::size_t i = 3; i < line.size(); ++i) {
    EXPECT_TRUE(world.mw(line[i]).read(Pattern{}).empty()) << i;
  }
  EXPECT_FALSE(world.mw(line[1]).read(Pattern{}).empty());
}

TEST(MaintenanceTest, HealingAfterPartitionRejoins) {
  emu::ShardedWorld world(options());
  const auto line = world.spawn_grid(1, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(line[0]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  world.despawn(line[2]);
  world.run_for(SimTime::from_seconds(3));

  // A new relay plugs the hole; the field must flow back with correct
  // values.
  world.spawn({2 * 80.0, 10});
  world.run_for(SimTime::from_seconds(4));
  EXPECT_TRUE(field_coherent(world, line[0]));
}

TEST(MaintenanceTest, MobileNodeCarriesNoStaleField) {
  emu::ShardedWorld world(options());
  const auto cluster = world.spawn_grid(2, 2, 80.0);
  const NodeId wanderer = world.spawn({80, 80});
  world.run_for(SimTime::from_seconds(1));
  world.mw(cluster[0]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_FALSE(world.mw(wanderer).read(Pattern{}).empty());

  // The wanderer leaves the cluster entirely: its replica's support chain
  // is gone, so the replica must vanish rather than linger as stale
  // context ("implicitly tune their activities to reflect network
  // dynamics").
  world.net().move_node(wanderer, {2000, 2000});
  world.run_for(SimTime::from_seconds(3));
  EXPECT_TRUE(world.mw(wanderer).read(Pattern{}).empty());

  // Coming back, it re-acquires the field.
  world.net().move_node(wanderer, {80, 80});
  world.run_for(SimTime::from_seconds(3));
  EXPECT_FALSE(world.mw(wanderer).read(Pattern{}).empty());
}

TEST(MaintenanceTest, DisabledMaintenanceLeavesStaleValues) {
  auto o = options();
  o.maintenance.repropagate_on_link_up = false;
  o.maintenance.retract_on_link_down = false;
  emu::ShardedWorld world(o);
  const auto line = world.spawn_grid(1, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(line[0]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));

  world.despawn(line[1]);
  world.run_for(SimTime::from_seconds(3));
  // Ablation: without maintenance the downstream replicas survive as
  // stale context (this is what the ABL benchmark quantifies).
  EXPECT_FALSE(world.mw(line[3]).read(Pattern{}).empty());

  // And a late joiner never hears about existing tuples.
  const NodeId late = world.spawn({4 * 80.0, 60});
  world.run_for(SimTime::from_seconds(3));
  EXPECT_TRUE(world.mw(late).read(Pattern{}).empty());
}

TEST(MaintenanceTest, DeliveredMessageSurvivesPathLoss) {
  emu::ShardedWorld world(options());
  const auto line = world.spawn_grid(1, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  const NodeId dest = line[3];
  world.mw(dest).inject(std::make_unique<GradientTuple>("structure"));
  world.run_for(SimTime::from_seconds(2));
  world.mw(line[0]).inject(
      std::make_unique<MessageTuple>(dest, "keep me", "structure"));
  world.run_for(SimTime::from_seconds(2));
  ASSERT_EQ(world.mw(dest).read(Pattern::of_type(MessageTuple::kTag)).size(),
            1u);

  // The relay the message arrived through dies; the delivered message is
  // data, not structure — it must stay.
  world.despawn(line[2]);
  world.run_for(SimTime::from_seconds(3));
  EXPECT_EQ(world.mw(dest).read(Pattern::of_type(MessageTuple::kTag)).size(),
            1u);
}

TEST(MaintenanceTest, ChurnStormEventuallyCoheres) {
  emu::ShardedWorld world(options(11));
  const auto grid = world.spawn_grid(4, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));
  const NodeId source = grid[5];
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));

  // Kill and add several nodes in quick succession.
  world.despawn(grid[10]);
  world.despawn(grid[3]);
  world.spawn({400, 80});
  world.run_for(SimTime::from_millis(200));
  world.despawn(grid[12]);
  world.spawn({-80, 0});
  world.run_for(SimTime::from_seconds(6));
  EXPECT_TRUE(field_coherent(world, source));
}

TEST(MaintenanceTest, SourceDeathClearsTheWholeField) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(3, 3, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(grid[4]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));

  world.despawn(grid[4]);  // the source dies
  world.run_for(SimTime::from_seconds(4));
  for (const NodeId n : world.nodes()) {
    EXPECT_TRUE(world.mw(n).read(Pattern{}).empty()) << to_string(n);
  }
}

TEST(NeighborValueTableTest, ForgetNeighborReportsUidsSorted) {
  // Rows inserted in a scrambled order: the uids a lost link affects
  // must come back sorted, not in the hash table's bucket order, so the
  // recheck cascade they start is the same under any standard library.
  NeighborValueTable table;
  const NodeId gone{7};
  const NodeId stays{8};
  std::vector<TupleUid> expected;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t k = (i * 37 + 11) % 64;  // a permutation of 0..63
    const TupleUid uid{NodeId{1 + k % 5}, 1000 - k};
    table.note(uid, gone, 2);
    expected.push_back(uid);
    if (k % 4 == 0) table.note(TupleUid{NodeId{99}, k}, stays, 1);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(table.forget_neighbor(gone), expected);
  EXPECT_TRUE(table.forget_neighbor(gone).empty());
  EXPECT_EQ(table.forget_neighbor(stays).size(), 16u);
}

}  // namespace
}  // namespace tota
