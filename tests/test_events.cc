// Unit tests for the EVENT INTERFACE (subscriptions, presence tuples).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs_expect.h"
#include "tota/events.h"
#include "tuples/gradient_tuple.h"

namespace tota {
namespace {

using tuples::GradientTuple;
using tota::testing::recorded;

GradientTuple make_gradient(const std::string& name) {
  GradientTuple g(name);
  g.set_uid(TupleUid{NodeId{1}, 1});
  g.content().set("source", NodeId{1}).set("hopcount", 0);
  return g;
}

TEST(EventBusTest, SubscriptionFiresOnMatch) {
  EventBus bus;
  int fired = 0;
  Pattern p;
  p.eq("name", "a");
  bus.subscribe(p, [&](const Event&) { ++fired; });

  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(fired, 1);

  const auto other = make_gradient("b");
  bus.publish({EventKind::kTupleArrived, &other, SimTime::zero()});
  EXPECT_EQ(fired, 1);
}

TEST(EventBusTest, KindFilterRestricts) {
  EventBus bus;
  int arrivals = 0;
  int removals = 0;
  bus.subscribe(
      Pattern{}, [&](const Event&) { ++arrivals; },
      static_cast<int>(EventKind::kTupleArrived));
  bus.subscribe(
      Pattern{}, [&](const Event&) { ++removals; },
      static_cast<int>(EventKind::kTupleRemoved));

  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  bus.publish({EventKind::kTupleRemoved, &tuple, SimTime::zero()});
  bus.publish({EventKind::kTupleRemoved, &tuple, SimTime::zero()});
  EXPECT_EQ(arrivals, 1);
  EXPECT_EQ(removals, 2);
}

TEST(EventBusTest, UnsubscribeById) {
  EventBus bus;
  int fired = 0;
  const auto id = bus.subscribe(Pattern{}, [&](const Event&) { ++fired; });
  bus.unsubscribe(id);
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(bus.subscription_count(), 0u);
}

TEST(EventBusTest, UnsubscribeByEquivalentPattern) {
  EventBus bus;
  int fired = 0;
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.eq("name", "a");
  bus.subscribe(p, [&](const Event&) { ++fired; });

  Pattern same = Pattern::of_type(GradientTuple::kTag);
  same.eq("name", "a");
  bus.unsubscribe(same);  // the paper's unsubscribe(template)
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(fired, 0);
}

TEST(EventBusTest, ReactionMaySubscribeReentrantly) {
  EventBus bus;
  int inner_fired = 0;
  bus.subscribe(Pattern{}, [&](const Event&) {
    bus.subscribe(Pattern{}, [&](const Event&) { ++inner_fired; });
  });
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(inner_fired, 0);  // snapshot: not fired for the same event
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(inner_fired, 1);
}

TEST(EventBusTest, ReactionMayUnsubscribeAnother) {
  EventBus bus;
  int second_fired = 0;
  SubscriptionId second = 0;
  bus.subscribe(Pattern{},
                [&](const Event&) { bus.unsubscribe(second); });
  second = bus.subscribe(Pattern{}, [&](const Event&) { ++second_fired; });
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  // The first reaction removed the second before it ran.
  EXPECT_EQ(second_fired, 0);
}

TEST(EventBusTest, ReactionMayUnsubscribeLaterMatchAcrossBuckets) {
  // Regression for the bucketed dispatch: the first reaction lives in the
  // untyped bucket, the victim in the gradient-tag bucket.  Both match the
  // event, the victim has the higher id (fires later), and the mid-publish
  // unsubscribe must still suppress it — liveness is checked per reaction
  // at fire time, not at candidate-collection time.
  EventBus bus;
  int victim_fired = 0;
  SubscriptionId victim = 0;
  bus.subscribe(Pattern{}, [&](const Event&) { bus.unsubscribe(victim); });
  victim = bus.subscribe(Pattern::of_type(GradientTuple::kTag),
                         [&](const Event&) { ++victim_fired; });
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(victim_fired, 0);
  EXPECT_EQ(bus.subscription_count(), 1u);

  // And the inverse order: a typed reaction killing a later untyped one.
  EventBus bus2;
  int late_fired = 0;
  SubscriptionId late = 0;
  bus2.subscribe(Pattern::of_type(GradientTuple::kTag),
                 [&](const Event&) { bus2.unsubscribe(late); });
  late = bus2.subscribe(Pattern{}, [&](const Event&) { ++late_fired; });
  bus2.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(late_fired, 0);
}

TEST(EventBusTest, TypedBucketsPreserveSubscriptionOrder) {
  // Reactions fire in subscription order even when the candidates come
  // from different (kind, tag) buckets.
  EventBus bus;
  std::vector<int> order;
  bus.subscribe(Pattern::of_type(GradientTuple::kTag),
                [&](const Event&) { order.push_back(1); });
  bus.subscribe(Pattern{}, [&](const Event&) { order.push_back(2); });
  bus.subscribe(
      Pattern::of_type(GradientTuple::kTag),
      [&](const Event&) { order.push_back(3); },
      static_cast<int>(EventKind::kTupleArrived));
  bus.subscribe(
      Pattern{}, [&](const Event&) { order.push_back(4); },
      static_cast<int>(EventKind::kTupleArrived));
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventBusTest, BoundMetricsCountDispatch) {
  obs::MetricsRegistry registry;
  EventBus bus;
  bus.bind_metrics(registry);
  bus.subscribe(Pattern::of_type(GradientTuple::kTag),
                [](const Event&) {});
  const auto id = bus.subscribe(Pattern{}, [](const Event&) {});
  bus.unsubscribe(id);

  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(registry.get("bus.publish"), recorded(1));
  EXPECT_EQ(registry.get("bus.dispatch.candidates"), recorded(1));
  EXPECT_EQ(registry.get("bus.dispatch.fired"), recorded(1));
  EXPECT_EQ(registry.get("bus.dispatch.skipped_dead"), 0);
}

// --- continuous queries ------------------------------------------------------

using CK = TupleSpace::ChangeKind;

/// A stored replica of gradient `name` (uid (1, seq)) at `hop`, as the
/// space's change listener would hand it to the bus.
TupleSpace::Entry make_member(std::uint64_t seq, const std::string& name,
                              int hop, NodeId parent = NodeId{},
                              bool propagated = false) {
  auto g = std::make_shared<GradientTuple>(name);
  g->set_uid(TupleUid{NodeId{1}, seq});
  g->content().set("source", NodeId{1}).set("hopcount", hop);
  return TupleSpace::Entry{std::move(g), GradientTuple::kTag, parent,
                           propagated, SimTime::zero()};
}

TEST(ContinuousQueryTest, DeltasTrackMembershipTransitions) {
  EventBus bus;
  std::vector<std::pair<QueryDelta::Kind, std::uint64_t>> log;
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.where("hopcount", Pred::le(3));
  bus.subscribe_query(p, [&](const QueryDelta& d) {
    log.emplace_back(d.kind, d.tuple->uid().sequence());
  });

  const auto near = make_member(1, "a", 2);
  const auto far = make_member(2, "a", 9);
  // Insert a match → added; insert a non-match → silence.
  bus.notify_space(CK::kInserted, near, SimTime::zero());
  bus.notify_space(CK::kInserted, far, SimTime::zero());
  // Replace while still matching → updated.
  const auto nearer = make_member(1, "a", 1);
  bus.notify_space(CK::kReplaced, nearer, SimTime::zero());
  // Replace out of the predicate → removed (no re-scan anywhere).
  const auto drifted = make_member(1, "a", 7);
  bus.notify_space(CK::kReplaced, drifted, SimTime::zero());
  // The far tuple was never a member: its erase is silent.
  bus.notify_space(CK::kErased, far, SimTime::zero());
  // Re-enter, then erase → added, removed.
  bus.notify_space(CK::kReplaced, nearer, SimTime::zero());
  bus.notify_space(CK::kErased, nearer, SimTime::zero());

  using K = QueryDelta::Kind;
  ASSERT_EQ(log.size(), 5u);
  EXPECT_EQ(log[0], (std::pair{K::kAdded, std::uint64_t{1}}));
  EXPECT_EQ(log[1], (std::pair{K::kUpdated, std::uint64_t{1}}));
  EXPECT_EQ(log[2], (std::pair{K::kRemoved, std::uint64_t{1}}));
  EXPECT_EQ(log[3], (std::pair{K::kAdded, std::uint64_t{1}}));
  EXPECT_EQ(log[4], (std::pair{K::kRemoved, std::uint64_t{1}}));
}

TEST(ContinuousQueryTest, TypeBucketsSkipForeignTags) {
  obs::MetricsRegistry registry;
  EventBus bus;
  bus.bind_metrics(registry);
  bus.subscribe_query(Pattern::of_type(GradientTuple::kTag),
                      [](const QueryDelta&) {});

  const TupleSpace::Entry presence{
      std::make_shared<PresenceTuple>(NodeId{7}, true), PresenceTuple::kTag,
      NodeId{}, false, SimTime::zero()};
  bus.notify_space(CK::kInserted, presence, SimTime::zero());
  // A typed query is never evaluated against a foreign tag.
  EXPECT_EQ(registry.get("bus.cq.evals"), 0);

  const auto g = make_member(1, "a", 0);
  bus.notify_space(CK::kInserted, g, SimTime::zero());
  EXPECT_EQ(registry.get("bus.cq.evals"), recorded(1));
  EXPECT_EQ(registry.get("bus.cq.added"), recorded(1));
}

TEST(ContinuousQueryTest, SeedReplaysStoredReplicas) {
  EventBus bus;
  int added = 0;
  const auto id = bus.subscribe_query(
      Pattern::of_type(GradientTuple::kTag), [&](const QueryDelta& d) {
        if (d.kind == QueryDelta::Kind::kAdded) ++added;
      });
  const auto g = make_member(1, "a", 0);
  bus.seed_query(id, g, SimTime::zero());
  EXPECT_EQ(added, 1);
  // Seeding an already-member uid is idempotent (kUpdated, not kAdded).
  bus.seed_query(id, g, SimTime::zero());
  EXPECT_EQ(added, 1);
}

TEST(ContinuousQueryTest, CallbackMayUnsubscribeItself) {
  EventBus bus;
  int fired = 0;
  QueryId id = 0;
  id = bus.subscribe_query(Pattern{}, [&](const QueryDelta&) {
    ++fired;
    bus.unsubscribe_query(id);
  });
  const auto g = make_member(1, "a", 0);
  bus.notify_space(CK::kInserted, g, SimTime::zero());
  bus.notify_space(CK::kErased, g, SimTime::zero());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(bus.query_count(), 0u);
}

TEST(ContinuousQueryTest, BoundMetricsCountDeltasByKind) {
  obs::MetricsRegistry registry;
  EventBus bus;
  bus.bind_metrics(registry);
  bus.subscribe_query(Pattern{}, [](const QueryDelta&) {});
  const auto g = make_member(1, "a", 0);
  bus.notify_space(CK::kInserted, g, SimTime::zero());
  bus.notify_space(CK::kReplaced, g, SimTime::zero());
  bus.notify_space(CK::kErased, g, SimTime::zero());
  EXPECT_EQ(registry.get("bus.cq.evals"), recorded(3));
  EXPECT_EQ(registry.get("bus.cq.added"), recorded(1));
  EXPECT_EQ(registry.get("bus.cq.updated"), recorded(1));
  EXPECT_EQ(registry.get("bus.cq.removed"), recorded(1));
}

TEST(ContinuousQueryTest, UnsubscribeByEquivalentPredicatePattern) {
  // The satellite-1 regression at the bus level: unsubscribe(template)
  // must find subscriptions whose patterns carry predicate ASTs.
  EventBus bus;
  int fired = 0;
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.where("hopcount", Pred::between(0, 3));
  bus.subscribe(p, [&](const Event&) { ++fired; });

  Pattern same = Pattern::of_type(GradientTuple::kTag);
  same.where("hopcount", Pred::between(0, 3));
  bus.unsubscribe(same);
  const auto tuple = make_gradient("a");
  bus.publish({EventKind::kTupleArrived, &tuple, SimTime::zero()});
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(bus.subscription_count(), 0u);
}

TEST(PresenceTupleTest, EncodesNeighborAndDirection) {
  const PresenceTuple up(NodeId{7}, true);
  EXPECT_EQ(up.neighbor(), NodeId{7});
  EXPECT_TRUE(up.up());
  const PresenceTuple down(NodeId{8}, false);
  EXPECT_FALSE(down.up());
}

TEST(PresenceTupleTest, MatchableByPattern) {
  EventBus bus;
  int ups = 0;
  Pattern p = Pattern::of_type(PresenceTuple::kTag);
  p.eq("event", "up");
  bus.subscribe(p, [&](const Event&) { ++ups; });

  const PresenceTuple up(NodeId{7}, true);
  const PresenceTuple down(NodeId{7}, false);
  bus.publish({EventKind::kNeighborUp, &up, SimTime::zero()});
  bus.publish({EventKind::kNeighborDown, &down, SimTime::zero()});
  EXPECT_EQ(ups, 1);
}

TEST(EventKindTest, Names) {
  EXPECT_STREQ(to_string(EventKind::kTupleArrived), "tuple_arrived");
  EXPECT_STREQ(to_string(EventKind::kNeighborDown), "neighbor_down");
}

}  // namespace
}  // namespace tota
