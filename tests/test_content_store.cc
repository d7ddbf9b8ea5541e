// Tests for content-based routing over TOTA (NavTuple + ContentStore).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/content_store.h"
#include "emu/sharded_world.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

constexpr Rect kKeyspace{{0, 0}, {480, 480}};

emu::ShardedWorld::Options options(std::uint64_t seed = 91) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = seed;
  return o;
}

struct Overlay {
  explicit Overlay(emu::ShardedWorld& world) {
    for (const NodeId n : world.nodes()) {
      stores.emplace(n,
                     std::make_unique<apps::ContentStore>(world.mw(n),
                                                          kKeyspace));
      stores.at(n)->start();
    }
  }
  std::unordered_map<NodeId, std::unique_ptr<apps::ContentStore>> stores;
};

TEST(KeyPointTest, DeterministicAndInKeyspace) {
  const Vec2 a = apps::ContentStore::key_point("alpha", kKeyspace);
  const Vec2 b = apps::ContentStore::key_point("alpha", kKeyspace);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(kKeyspace.contains(a));
  const Vec2 c = apps::ContentStore::key_point("beta", kKeyspace);
  EXPECT_NE(a, c);
}

TEST(KeyPointTest, SpreadsAcrossTheSpace) {
  // 100 keys must not collapse into one quadrant.
  int quadrant[4] = {0, 0, 0, 0};
  for (int i = 0; i < 100; ++i) {
    const Vec2 p = apps::ContentStore::key_point("key" + std::to_string(i),
                                                 kKeyspace);
    const int q = (p.x > 240 ? 1 : 0) + (p.y > 240 ? 2 : 0);
    ++quadrant[q];
  }
  for (const int count : quadrant) EXPECT_GT(count, 5);
}

TEST(NavTupleTest, GreedyEntryOnlyWhenCloser) {
  tuples::register_standard_tuples();
  TupleSpace space;
  Rng rng(1);
  auto ctx = [&](int hop, Vec2 pos) {
    return Context{NodeId{1}, NodeId{2}, hop, SimTime::zero(),
                   pos,       space,     rng, nullptr};
  };
  NavTuple nav("k", Vec2{100, 0}, "get");
  nav.change_content(ctx(0, Vec2{0, 0}));  // best = 100
  EXPECT_TRUE(nav.decide_enter(ctx(1, Vec2{40, 0})));   // 60 < 100
  EXPECT_FALSE(nav.decide_enter(ctx(1, Vec2{-20, 0}))); // 120 > 100
  EXPECT_FALSE(nav.decide_enter(ctx(1, Vec2{0, 0})));   // equal: no
}

TEST(NavTupleTest, WireRoundTripKeepsBest) {
  tuples::register_standard_tuples();
  NavTuple nav("k", Vec2{10, 20}, "put");
  nav.set_uid(TupleUid{NodeId{3}, 9});
  nav.content().set("value", "v").set("source", NodeId{3}).set("hopcount", 0);
  wire::Writer w;
  nav.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  const auto& n2 = static_cast<const NavTuple&>(*decoded);
  EXPECT_EQ(n2.key(), "k");
  EXPECT_EQ(n2.target(), (Vec2{10, 20}));
  EXPECT_EQ(n2.purpose(), "put");
  EXPECT_FALSE(n2.maintained());
}

TEST(ContentStoreTest, PutStoresAtTheClosestNode) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(7, 7, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));  // beacons spread

  overlay.stores.at(grid[0])->put("alpha", "value-A");
  world.run_for(SimTime::from_seconds(2));

  // Exactly the node nearest to the key's point holds the record.
  const Vec2 target = apps::ContentStore::key_point("alpha", kKeyspace);
  NodeId closest = grid[0];
  for (const NodeId n : grid) {
    if (distance(world.net().position(n), target) <
        distance(world.net().position(closest), target)) {
      closest = n;
    }
  }
  EXPECT_EQ(overlay.stores.at(closest)->stored_keys(), 1u);
  std::size_t total = 0;
  for (const auto& [n, store] : overlay.stores) total += store->stored_keys();
  EXPECT_EQ(total, 1u);
}

TEST(ContentStoreTest, GetFindsValueFromAnywhere) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(7, 7, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));

  overlay.stores.at(grid[3])->put("alpha", "value-A");
  world.run_for(SimTime::from_seconds(2));

  std::optional<std::string> got;
  bool answered = false;
  overlay.stores.at(grid[45])->get("alpha", [&](auto v) {
    answered = true;
    got = std::move(v);
  });
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(answered);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "value-A");
}

TEST(ContentStoreTest, MissingKeyAnswersNullopt) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(5, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));

  bool answered = false;
  std::optional<std::string> got = std::string("sentinel");
  overlay.stores.at(grid[0])->get("never-stored", [&](auto v) {
    answered = true;
    got = std::move(v);
  });
  world.run_for(SimTime::from_seconds(3));
  EXPECT_TRUE(answered);
  EXPECT_FALSE(got.has_value());
}

TEST(ContentStoreTest, PutOverwritesValue) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(5, 5, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));

  overlay.stores.at(grid[0])->put("k", "v1");
  world.run_for(SimTime::from_seconds(2));
  overlay.stores.at(grid[24])->put("k", "v2");
  world.run_for(SimTime::from_seconds(2));

  std::optional<std::string> got;
  overlay.stores.at(grid[12])->get("k", [&](auto v) { got = std::move(v); });
  world.run_for(SimTime::from_seconds(3));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "v2");

  std::size_t total = 0;
  for (const auto& [n, store] : overlay.stores) total += store->stored_keys();
  EXPECT_EQ(total, 1u);  // replaced, not duplicated
}

TEST(ContentStoreTest, ManyKeysSpreadOverManyHomes) {
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(6, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));

  for (int i = 0; i < 24; ++i) {
    overlay.stores.at(grid[static_cast<std::size_t>(i) % grid.size()])
        ->put("key" + std::to_string(i), "v" + std::to_string(i));
    world.run_for(SimTime::from_millis(300));
  }
  world.run_for(SimTime::from_seconds(2));

  int homes_used = 0;
  std::size_t total = 0;
  for (const auto& [n, store] : overlay.stores) {
    if (store->stored_keys() > 0) ++homes_used;
    total += store->stored_keys();
  }
  EXPECT_EQ(total, 24u);
  EXPECT_GT(homes_used, 8);  // load spread, not one super-peer
}

TEST(ContentStoreTest, AnswersNeverFlood) {
  // The strict reply must cost O(path), not O(N).
  emu::ShardedWorld world(options());
  const auto grid = world.spawn_grid(6, 6, 80.0);
  world.run_for(SimTime::from_seconds(1));
  Overlay overlay(world);
  world.run_for(SimTime::from_seconds(1));
  overlay.stores.at(grid[0])->put("k", "v");
  world.run_for(SimTime::from_seconds(2));

  const auto before = world.metrics().get("radio.tx");
  std::optional<std::string> got;
  overlay.stores.at(grid[35])->get("k", [&](auto v) { got = std::move(v); });
  world.run_for(SimTime::from_seconds(3));
  const auto cost = world.metrics().get("radio.tx") - before;
  ASSERT_TRUE(got.has_value());
  // Nav + strict answer both confined near the greedy path; far below a
  // double network flood (2 x 36).
  EXPECT_LT(cost, 40);
}

}  // namespace
}  // namespace tota
