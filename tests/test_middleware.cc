// Tests for the Middleware facade: the paper's API surface semantics.
#include <gtest/gtest.h>

#include <type_traits>

#include "fake_platform.h"
#include "tota/middleware.h"
#include "tuples/all.h"

namespace tota {
namespace {

using testing::FakePlatform;
using namespace tota::tuples;

class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { register_standard_tuples(); }

  FakePlatform platform_;
  Middleware mw_{NodeId{1}, platform_};
};

TEST_F(MiddlewareTest, InjectReturnsUidAndStores) {
  const TupleUid uid = mw_.inject(std::make_unique<GradientTuple>("f"));
  EXPECT_TRUE(uid.valid());
  EXPECT_EQ(uid.origin(), mw_.self());
  EXPECT_EQ(mw_.space().size(), 1u);
}

TEST_F(MiddlewareTest, ReadReturnsSharedImmutableHandles) {
  static_assert(std::is_const_v<TupleHandle::element_type>,
                "a read must not hand out a mutable replica");
  mw_.inject(std::make_unique<GradientTuple>("f"));
  const auto handles = mw_.read(Pattern{});
  ASSERT_EQ(handles.size(), 1u);
  // The handle is the stored replica itself, not a copy of it...
  EXPECT_EQ(handles[0], mw_.read_one(Pattern{}));
  // ...and it outlives the replica's removal with its content intact.
  EXPECT_EQ(mw_.take(Pattern{}).size(), 1u);
  EXPECT_TRUE(mw_.space().empty());
  EXPECT_EQ(handles[0]->content().at("name").as_string(), "f");
}

TEST_F(MiddlewareTest, ReadOneNullWhenNoMatch) {
  EXPECT_EQ(mw_.read_one(Pattern::of_type(FlockTuple::kTag)), nullptr);
}

TEST_F(MiddlewareTest, TakeRemovesLocally) {
  mw_.inject(std::make_unique<GradientTuple>("a"));
  mw_.inject(std::make_unique<GradientTuple>("b"));
  Pattern p;
  p.eq("name", "a");
  const auto taken = mw_.take(p);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0]->content().at("name").as_string(), "a");
  EXPECT_EQ(mw_.space().size(), 1u);
}

TEST_F(MiddlewareTest, TakeDoesNotAnnounceRemoval) {
  // The paper's delete is local: no RETRACT goes on the air, other
  // replicas are untouched (use ModifierTuple for distributed deletes).
  mw_.inject(std::make_unique<GradientTuple>("a"));
  platform_.broadcasts.clear();
  mw_.take(Pattern{});
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(MiddlewareTest, SubscribeFiresOnInject) {
  std::vector<std::string> seen;
  mw_.subscribe(Pattern::of_type(GradientTuple::kTag),
                [&](const Event& e) {
                  seen.push_back(e.tuple->content().at("name").as_string());
                },
                static_cast<int>(EventKind::kTupleArrived));
  mw_.inject(std::make_unique<GradientTuple>("x"));
  EXPECT_EQ(seen, std::vector<std::string>{"x"});
}

TEST_F(MiddlewareTest, UnsubscribeByTemplateStopsReactions) {
  int fired = 0;
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.eq("name", "x");
  mw_.subscribe(p, [&](const Event&) { ++fired; });

  Pattern same = Pattern::of_type(GradientTuple::kTag);
  same.eq("name", "x");
  mw_.unsubscribe(same);
  mw_.inject(std::make_unique<GradientTuple>("x"));
  EXPECT_EQ(fired, 0);
}

TEST_F(MiddlewareTest, UnsubscribeByIdIsPrecise) {
  int a = 0;
  int b = 0;
  const auto ida =
      mw_.subscribe(Pattern{}, [&](const Event&) { ++a; });
  mw_.subscribe(Pattern{}, [&](const Event&) { ++b; });
  mw_.unsubscribe(ida);
  mw_.inject(std::make_unique<GradientTuple>("x"));
  EXPECT_EQ(a, 0);
  EXPECT_GE(b, 1);
}

TEST_F(MiddlewareTest, NeighborUpDownPublishPresenceEvents) {
  std::vector<std::pair<bool, NodeId>> events;
  mw_.subscribe(Pattern::of_type(PresenceTuple::kTag),
                [&](const Event& e) {
                  const auto& p = static_cast<const PresenceTuple&>(*e.tuple);
                  events.emplace_back(p.up(), p.neighbor());
                });
  mw_.on_neighbor_up(NodeId{9});
  mw_.on_neighbor_down(NodeId{9});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<bool, NodeId>{true, NodeId{9}}));
  EXPECT_EQ(events[1], (std::pair<bool, NodeId>{false, NodeId{9}}));
  EXPECT_TRUE(mw_.neighbors().empty());
}

TEST_F(MiddlewareTest, DatagramsFlowToTheEngine) {
  GradientTuple remote("f");
  remote.set_uid(TupleUid{NodeId{7}, 3});
  remote.set_hop(1);
  wire::Writer w;
  w.u8(1);
  remote.encode(w);
  mw_.on_datagram(NodeId{7}, w.bytes());
  EXPECT_EQ(mw_.space().size(), 1u);
  EXPECT_EQ(mw_.engine().decode_failures(), 0u);
}

TEST_F(MiddlewareTest, EventSubscriptionSeesRemovals) {
  int removed = 0;
  mw_.subscribe(
      Pattern{}, [&](const Event&) { ++removed; },
      static_cast<int>(EventKind::kTupleRemoved));
  mw_.inject(std::make_unique<GradientTuple>("f"));
  mw_.take(Pattern{});
  // take() itself bypasses the bus (paper semantics: a pull, not an
  // event)… removals via the engine's ops DO fire; assert current
  // contract explicitly:
  EXPECT_EQ(removed, 0);
}

// --- continuous queries (docs/QUERY.md) --------------------------------------

TEST_F(MiddlewareTest, SubscribeQueryReplaysExistingMatchesThenTracks) {
  mw_.inject(std::make_unique<GradientTuple>("a"));
  mw_.inject(std::make_unique<GradientTuple>("b"));
  std::vector<std::pair<QueryDelta::Kind, std::string>> log;
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  mw_.subscribe_query(p, [&](const QueryDelta& d) {
    log.emplace_back(d.kind, d.tuple->content().at("name").as_string());
  });
  // Registration replayed the stored matches, in uid order.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair{QueryDelta::Kind::kAdded, std::string{"a"}}));
  EXPECT_EQ(log[1], (std::pair{QueryDelta::Kind::kAdded, std::string{"b"}}));

  // From then on, every store change maintains the set incrementally.
  mw_.inject(std::make_unique<GradientTuple>("c"));
  Pattern take_a;
  take_a.eq("name", "a");
  mw_.take(take_a);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], (std::pair{QueryDelta::Kind::kAdded, std::string{"c"}}));
  EXPECT_EQ(log[3],
            (std::pair{QueryDelta::Kind::kRemoved, std::string{"a"}}));
}

TEST_F(MiddlewareTest, UnsubscribeQueryStopsDeltas) {
  int fired = 0;
  const auto id =
      mw_.subscribe_query(Pattern{}, [&](const QueryDelta&) { ++fired; });
  mw_.unsubscribe_query(id);
  mw_.inject(std::make_unique<GradientTuple>("x"));
  EXPECT_EQ(fired, 0);
}

TEST_F(MiddlewareTest, PredicateQueriesTrackFieldChanges) {
  std::vector<QueryDelta::Kind> kinds;
  Pattern near = Pattern::of_type(GradientTuple::kTag);
  near.where("hopcount", Pred::le(2));
  mw_.subscribe_query(near,
                      [&](const QueryDelta& d) { kinds.push_back(d.kind); });

  // A far copy arrives first (outside the predicate, silent); the shorter
  // path supersedes it, and the replacement enters the result set.
  GradientTuple remote("f");
  remote.set_uid(TupleUid{NodeId{7}, 3});
  remote.set_hop(4);
  remote.content().set("source", NodeId{7}).set("hopcount", 4);
  wire::Writer w1;
  w1.u8(1);
  remote.encode(w1);
  mw_.on_datagram(NodeId{7}, w1.bytes());
  EXPECT_TRUE(kinds.empty());

  remote.set_hop(0);
  remote.content().set("hopcount", 0);
  wire::Writer w2;
  w2.u8(1);
  remote.encode(w2);
  mw_.on_datagram(NodeId{8}, w2.bytes());

  mw_.take(Pattern::of_type(GradientTuple::kTag));
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], QueryDelta::Kind::kAdded);
  EXPECT_EQ(kinds[1], QueryDelta::Kind::kRemoved);
}

TEST_F(MiddlewareTest, SelfAndPlatformAccessors) {
  EXPECT_EQ(mw_.self(), NodeId{1});
  EXPECT_EQ(&mw_.platform(), &platform_);
}

}  // namespace
}  // namespace tota
