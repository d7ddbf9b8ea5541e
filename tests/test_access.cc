// Tests for the access-control model (paper §6 future work).
#include <gtest/gtest.h>

#include "emu/sharded_world.h"
#include "fake_platform.h"
#include "tota/access.h"
#include "tota/middleware.h"
#include "tuples/all.h"

namespace tota {
namespace {

using testing::FakePlatform;
using namespace tota::tuples;

TEST(AccessGrantTest, EveryoneScope) {
  const AccessGrant g{AccessScope::kEveryone, {}};
  EXPECT_TRUE(g.permits(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(g.permits(NodeId{1}, NodeId{1}));
}

TEST(AccessGrantTest, OwnerOnlyScope) {
  const AccessGrant g{AccessScope::kOwnerOnly, {}};
  EXPECT_TRUE(g.permits(NodeId{1}, NodeId{1}));
  EXPECT_FALSE(g.permits(NodeId{1}, NodeId{2}));
}

TEST(AccessGrantTest, ListScopeIncludesOwnerImplicitly) {
  const AccessGrant g{AccessScope::kList, {NodeId{5}, NodeId{6}}};
  EXPECT_TRUE(g.permits(NodeId{1}, NodeId{5}));
  EXPECT_TRUE(g.permits(NodeId{1}, NodeId{1}));  // owner always in
  EXPECT_FALSE(g.permits(NodeId{1}, NodeId{7}));
}

TEST(AccessPolicyTest, FactoriesBehave) {
  const auto open = AccessPolicy::open();
  EXPECT_TRUE(open.permits(AccessOp::kObserve, NodeId{1}, NodeId{9}));
  EXPECT_TRUE(open.permits(AccessOp::kExtract, NodeId{1}, NodeId{9}));

  const auto priv = AccessPolicy::private_to_owner();
  EXPECT_FALSE(priv.permits(AccessOp::kObserve, NodeId{1}, NodeId{9}));
  EXPECT_TRUE(priv.permits(AccessOp::kObserve, NodeId{1}, NodeId{1}));
  EXPECT_TRUE(priv.permits(AccessOp::kHost, NodeId{1}, NodeId{9}));

  const auto shared = AccessPolicy::shared_with({NodeId{3}});
  EXPECT_TRUE(shared.permits(AccessOp::kObserve, NodeId{1}, NodeId{3}));
  EXPECT_FALSE(shared.permits(AccessOp::kObserve, NodeId{1}, NodeId{4}));
}

TEST(AccessPolicyTest, RoundTripsOnTheWire) {
  AccessPolicy p = AccessPolicy::shared_with({NodeId{3}, NodeId{4}});
  p.set(AccessOp::kHost, AccessGrant{AccessScope::kOwnerOnly, {}});
  wire::Writer w;
  p.encode(w);
  wire::Reader r(w.bytes());
  EXPECT_EQ(AccessPolicy::decode(r), p);
  EXPECT_TRUE(r.done());
}

TEST(AccessPolicyTest, MalformedScopeRejected) {
  wire::Writer w;
  w.u8(9);
  wire::Reader r(w.bytes());
  EXPECT_THROW(AccessGrant::decode(r), wire::DecodeError);
}

TEST(AccessPolicyTest, TravelsWithTheTuple) {
  tuples::register_standard_tuples();
  GradientTuple g("secret");
  g.set_uid(TupleUid{NodeId{1}, 1});
  g.set_access(AccessPolicy::private_to_owner());
  wire::Writer w;
  g.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  EXPECT_FALSE(decoded->permits(AccessOp::kObserve, NodeId{9}));
  EXPECT_TRUE(decoded->permits(AccessOp::kObserve, NodeId{1}));
}

class AccessMiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { tuples::register_standard_tuples(); }

  FakePlatform platform_;
  Middleware mw_{NodeId{2}, platform_};

  void receive(Tuple& t, NodeId from = NodeId{1}) {
    wire::Writer w;
    w.u8(1);
    t.encode(w);
    mw_.on_datagram(from, w.bytes());
  }
};

TEST_F(AccessMiddlewareTest, ReadHidesUnobservableTuples) {
  GradientTuple secret("secret");
  secret.set_uid(TupleUid{NodeId{1}, 1});
  secret.set_access(AccessPolicy::private_to_owner());
  receive(secret);

  GradientTuple open("open");
  open.set_uid(TupleUid{NodeId{1}, 2});
  receive(open);

  // The replica is hosted (it must keep propagating)…
  EXPECT_EQ(mw_.space().size(), 2u);
  // …but the application on node 2 sees only the open one.
  const auto visible = mw_.read(Pattern{});
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(visible[0]->content().at("name").as_string(), "open");
  EXPECT_EQ(mw_.read_one(Pattern::of_type(GradientTuple::kTag))
                ->content()
                .at("name")
                .as_string(),
            "open");
}

TEST_F(AccessMiddlewareTest, EventsAreSuppressedWithoutObserveRights) {
  int fired = 0;
  mw_.subscribe(Pattern{}, [&](const Event&) { ++fired; },
                static_cast<int>(EventKind::kTupleArrived));

  GradientTuple secret("secret");
  secret.set_uid(TupleUid{NodeId{1}, 1});
  secret.set_access(AccessPolicy::private_to_owner());
  receive(secret);
  EXPECT_EQ(fired, 0);

  GradientTuple open("open");
  open.set_uid(TupleUid{NodeId{1}, 2});
  receive(open);
  EXPECT_EQ(fired, 1);
}

TEST_F(AccessMiddlewareTest, TakeLeavesProtectedTuples) {
  GradientTuple keep("keep");
  keep.set_uid(TupleUid{NodeId{1}, 1});
  keep.set_access(AccessPolicy::private_to_owner());
  receive(keep);

  GradientTuple gone("gone");
  gone.set_uid(TupleUid{NodeId{1}, 2});
  receive(gone);

  const auto taken = mw_.take(Pattern{});
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0]->content().at("name").as_string(), "gone");
  EXPECT_EQ(mw_.space().size(), 1u);  // the protected one stays
}

TEST_F(AccessMiddlewareTest, HostDenialMakesTupleRelayOnly) {
  GradientTuple transit("transit");
  transit.set_uid(TupleUid{NodeId{1}, 1});
  AccessPolicy p;
  p.set(AccessOp::kHost,
        AccessGrant{AccessScope::kList, {NodeId{7}}});  // not node 2
  transit.set_access(p);
  receive(transit);

  // No replica rests here, but the frame was relayed onward.
  EXPECT_EQ(mw_.space().size(), 0u);
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST(AccessIntegrationTest, WhitelistedReaderSeesSharedField) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = 88;
  emu::ShardedWorld world(o);
  const auto line = world.spawn_grid(1, 4, 80.0);
  world.run_for(SimTime::from_seconds(1));

  auto field = std::make_unique<GradientTuple>("team-field");
  field->set_access(AccessPolicy::shared_with({line[3]}));
  world.mw(line[0]).inject(std::move(field));
  world.run_for(SimTime::from_seconds(2));

  // Everyone hosts it (the structure must span the line)…
  for (const NodeId n : line) {
    EXPECT_EQ(world.mw(n).space().size(), 1u) << to_string(n);
  }
  // …only the whitelisted end reads it.
  EXPECT_EQ(world.mw(line[3]).read(Pattern{}).size(), 1u);
  EXPECT_EQ(world.mw(line[1]).read(Pattern{}).size(), 0u);
  EXPECT_EQ(world.mw(line[2]).read(Pattern{}).size(), 0u);
}

TEST(AccessIntegrationTest, OwnerAlwaysReadsItsOwnTuple) {
  FakePlatform platform;
  tuples::register_standard_tuples();
  Middleware mw(NodeId{1}, platform);
  auto t = std::make_unique<GradientTuple>("mine");
  t->set_access(AccessPolicy::private_to_owner());
  mw.inject(std::move(t));
  EXPECT_EQ(mw.read(Pattern{}).size(), 1u);
  EXPECT_EQ(mw.take(Pattern{}).size(), 1u);
}

}  // namespace
}  // namespace tota
