// Tests for the emulator harness: ShardedWorld lifecycle, the
// ShardPlatform binding, renderers.
#include <gtest/gtest.h>

#include <fstream>

#include "emu/render.h"
#include "emu/sharded_world.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

emu::ShardedWorld::Options options() {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = 77;
  return o;
}

TEST(WorldTest, SpawnGridPlacesAndConnects) {
  emu::ShardedWorld world(options());
  const auto nodes = world.spawn_grid(3, 4, 80.0, {100, 200});
  EXPECT_EQ(nodes.size(), 12u);
  EXPECT_EQ(world.net().position(nodes[0]), (Vec2{100, 200}));
  EXPECT_EQ(world.net().position(nodes[5]), (Vec2{180, 280}));
  EXPECT_TRUE(world.net().topology().connected());
}

TEST(WorldTest, SpawnRandomStaysInArena) {
  emu::ShardedWorld world(options());
  const Rect arena{{50, 50}, {150, 150}};
  const auto nodes = world.spawn_random(30, arena);
  for (const NodeId n : nodes) {
    EXPECT_TRUE(arena.contains(world.net().position(n)));
  }
}

TEST(WorldTest, SpawnRandomUsesMobilityFactory) {
  emu::ShardedWorld world(options());
  int built = 0;
  world.spawn_random(5, Rect{{0, 0}, {100, 100}},
                     [&](Rng&) -> std::unique_ptr<sim::MobilityModel> {
                       ++built;
                       return std::make_unique<sim::StaticMobility>();
                     });
  EXPECT_EQ(built, 5);
}

TEST(WorldTest, MwThrowsForUnknownNode) {
  emu::ShardedWorld world(options());
  EXPECT_THROW(static_cast<void>(world.mw(NodeId{999})), std::invalid_argument);
}

TEST(WorldTest, DespawnedNodeStopsParticipating) {
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({0, 0});
  const NodeId b = world.spawn({50, 0});
  world.run_for(SimTime::from_seconds(1));
  world.despawn(b);
  // Injecting at a must not crash on the departed neighbour, and a's
  // neighbourhood must be empty.
  world.mw(a).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(2));
  EXPECT_TRUE(world.mw(a).neighbors().empty());
  EXPECT_THROW(static_cast<void>(world.mw(b)), std::invalid_argument);
}

TEST(WorldTest, DespawnDisarmsPendingTimers) {
  // A node with periodic middleware timers (here: injected via platform
  // schedule) is torn down; its pending actions must not fire afterwards.
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({0, 0});
  int fired = 0;
  world.mw(a).platform().schedule(SimTime::from_seconds(1),
                                  [&] { ++fired; });
  world.despawn(a);
  world.run_for(SimTime::from_seconds(3));
  EXPECT_EQ(fired, 0);
}

TEST(WorldTest, ReusesNothingAcrossSpawns) {
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({0, 0});
  world.despawn(a);
  const NodeId b = world.spawn({0, 0});
  EXPECT_NE(a, b);  // ids are never recycled
}

TEST(ShardPlatformTest, PositionFollowsNode) {
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({10, 20});
  EXPECT_EQ(world.mw(a).platform().position(), (Vec2{10, 20}));
  world.net().move_node(a, {30, 40});
  EXPECT_EQ(world.mw(a).platform().position(), (Vec2{30, 40}));
}

TEST(RenderTest, AsciiMapGlyphsAndBounds) {
  emu::ShardedWorld world(options());
  const NodeId a = world.spawn({0, 0});
  world.spawn({90, 90});
  const std::string map =
      emu::ascii_map(world.net().topology(), Rect{{0, 0}, {100, 100}}, 10, 5,
                     [&](NodeId id) { return id == a ? 'A' : '\0'; });
  EXPECT_NE(map.find('A'), std::string::npos);
  EXPECT_NE(map.find('*'), std::string::npos);
  // 5 rows of 10 chars + newlines.
  EXPECT_EQ(map.size(), 5u * 11u);
}

TEST(RenderTest, AsciiMapClampsOutOfArenaNodes) {
  emu::ShardedWorld world(options());
  world.spawn({-500, -500});
  const std::string map =
      emu::ascii_map(world.net().topology(), Rect{{0, 0}, {100, 100}}, 10, 5);
  EXPECT_NE(map.find('*'), std::string::npos);  // clamped to the edge
}

TEST(RenderTest, PpmFileIsWellFormed) {
  emu::ShardedWorld world(options());
  world.spawn_grid(2, 2, 50.0);
  const std::string path = ::testing::TempDir() + "/tota_render_test.ppm";
  ASSERT_TRUE(emu::write_ppm(path, world.net().topology(),
                             Rect{{0, 0}, {100, 100}}, 40, 30));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  int w = 0;
  int h = 0;
  int maxval = 0;
  in >> magic >> w >> h >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 40);
  EXPECT_EQ(h, 30);
  EXPECT_EQ(maxval, 255);
  in.get();  // the single whitespace after the header
  std::vector<char> pixels(static_cast<std::size_t>(w) * h * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
}

TEST(RenderTest, PpmFailsGracefullyOnBadPath) {
  emu::ShardedWorld world(options());
  EXPECT_FALSE(emu::write_ppm("/nonexistent-dir/x.ppm",
                              world.net().topology(),
                              Rect{{0, 0}, {1, 1}}, 4, 4));
}

}  // namespace
}  // namespace tota
