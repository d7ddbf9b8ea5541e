// Unit tests for the local tuple space and its queries.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "obs_expect.h"
#include "tota/tuple_space.h"
#include "tuples/all.h"

namespace tota {
namespace {

using tuples::GradientTuple;
using tota::testing::recorded;

std::unique_ptr<GradientTuple> make_tuple(NodeId origin, std::uint64_t seq,
                                          const std::string& name, int hop) {
  auto t = std::make_unique<GradientTuple>(name);
  t->set_uid(TupleUid{origin, seq});
  t->set_hop(hop);
  t->content().set("source", origin).set("hopcount", hop);
  return t;
}

class TupleSpaceTest : public ::testing::Test {
 protected:
  void SetUp() override { tuples::register_standard_tuples(); }
  TupleSpace space_;
};

TEST_F(TupleSpaceTest, PutAndFind) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, true,
             SimTime::zero());
  const auto* entry = space_.find(TupleUid{NodeId{1}, 1});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->tuple->content().at("name").as_string(), "a");
  EXPECT_TRUE(entry->propagated);
  EXPECT_FALSE(entry->parent.valid());
  EXPECT_EQ(space_.size(), 1u);
}

TEST_F(TupleSpaceTest, PutReplacesSameUid) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 5), NodeId{2}, true,
             SimTime::zero());
  space_.put(make_tuple(NodeId{1}, 1, "a", 3), NodeId{3}, true,
             SimTime::zero());
  EXPECT_EQ(space_.size(), 1u);
  const auto* entry = space_.find(TupleUid{NodeId{1}, 1});
  EXPECT_EQ(entry->tuple->hop(), 3);
  EXPECT_EQ(entry->parent, NodeId{3});
}

TEST_F(TupleSpaceTest, EraseReturnsTuple) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  auto removed = space_.erase(TupleUid{NodeId{1}, 1});
  ASSERT_NE(removed, nullptr);
  EXPECT_TRUE(space_.empty());
  EXPECT_EQ(space_.erase(TupleUid{NodeId{1}, 1}), nullptr);
}

TEST_F(TupleSpaceTest, ReadHandleKeepsItsContentAfterReplaceAndTake) {
  const TupleUid uid{NodeId{1}, 1};
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  const auto read = space_.read(Pattern{});
  const TupleHandle one = space_.read_one(Pattern{});
  ASSERT_EQ(read.size(), 1u);
  ASSERT_NE(one, nullptr);

  // A replacement installs a new object; the handles keep the old one.
  space_.put(make_tuple(NodeId{1}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  EXPECT_EQ(space_.find(uid)->tuple->content().at("name").as_string(), "b");
  EXPECT_EQ(read[0]->content().at("name").as_string(), "a");
  EXPECT_EQ(one->content().at("name").as_string(), "a");

  // Taking the replica leaves a handle to it readable after the space
  // let go.
  const TupleHandle replaced = space_.read_one(Pattern{});
  EXPECT_EQ(space_.take(Pattern{}).size(), 1u);
  EXPECT_TRUE(space_.empty());
  EXPECT_EQ(replaced.use_count(), 1);
  EXPECT_EQ(replaced->content().at("name").as_string(), "b");
  EXPECT_EQ(one->uid(), uid);
}

TEST_F(TupleSpaceTest, ReadFiltersByPattern) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  Pattern p;
  p.eq("name", "b");
  const auto results = space_.read(p);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0]->content().at("name").as_string(), "b");
}

TEST_F(TupleSpaceTest, ReadOneReturnsFirstInUidOrder) {
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  const auto one = space_.read_one(Pattern{});
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(one->uid().origin(), NodeId{1});
  EXPECT_EQ(space_.read_one(Pattern::of_type("no.such")), nullptr);
}

TEST_F(TupleSpaceTest, ReadSharesTheStoredReplica) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  const TupleSpace::Entry* entry = space_.find(TupleUid{NodeId{1}, 1});
  const auto handles = space_.read(Pattern{});
  ASSERT_EQ(handles.size(), 1u);
  EXPECT_EQ(handles[0], entry->tuple);
  EXPECT_EQ(space_.read_one(Pattern{}), entry->tuple);
  EXPECT_EQ(entry->tuple.use_count(), 2);  // the store's and `handles`
}

TEST_F(TupleSpaceTest, TakeRemovesMatches) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  Pattern p;
  p.eq("name", "a");
  auto taken = space_.take(p);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(space_.size(), 1u);
  EXPECT_EQ(space_.find(TupleUid{NodeId{1}, 1}), nullptr);
}

// Uids for_matching visits for `pattern`, in visiting order.
std::vector<TupleUid> matching_uids(const TupleSpace& space,
                                    const Pattern& pattern) {
  std::vector<TupleUid> uids;
  space.for_matching(pattern, [&uids](const TupleSpace::Entry& entry) {
    uids.push_back(entry.tuple->uid());
    return true;
  });
  return uids;
}

TEST_F(TupleSpaceTest, PropagatedUidsFiltersFlag) {
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, true,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  const auto uids = space_.propagated_uids();
  ASSERT_EQ(uids.size(), 1u);
  EXPECT_EQ(uids[0].origin(), NodeId{1});
}

TEST_F(TupleSpaceTest, ForEachVisitsInUidOrder) {
  space_.put(make_tuple(NodeId{3}, 1, "c", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, false,
             SimTime::zero());
  std::vector<std::uint64_t> origins;
  space_.for_each([&](const TupleSpace::Entry& e) {
    origins.push_back(e.tuple->uid().origin().value());
  });
  EXPECT_EQ(origins, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(TupleSpaceTest, ReplaceMovesEntryBetweenIndexes) {
  // Same uid stored as a propagated gradient under parent 2, then
  // replaced by a non-propagated message under parent 3: every index
  // must follow the replacement.
  auto grad = make_tuple(NodeId{1}, 1, "a", 1);
  space_.put(std::move(grad), NodeId{2}, true, SimTime::zero());

  auto msg = std::make_unique<tuples::MessageTuple>();
  msg->set_uid(TupleUid{NodeId{1}, 1});
  space_.put(std::move(msg), NodeId{3}, false, SimTime::zero());

  EXPECT_TRUE(space_.read(Pattern::of_type(GradientTuple::kTag)).empty());
  ASSERT_EQ(space_.read(Pattern::of_type(tuples::MessageTuple::kTag)).size(),
            1u);
  EXPECT_EQ(space_.find(TupleUid{NodeId{1}, 1})->parent, NodeId{3});
  EXPECT_TRUE(space_.propagated_uids().empty());
}

TEST_F(TupleSpaceTest, BoundMetricsCountIndexedAndScanQueries) {
  obs::MetricsRegistry registry;
  space_.bind_metrics(registry);
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, true,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "b", 0), NodeId{}, true,
             SimTime::zero());

  (void)space_.read(Pattern::of_type(GradientTuple::kTag));
  EXPECT_EQ(registry.get("space.query.indexed"), recorded(1));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(2));
  EXPECT_EQ(registry.get("space.query.matches"), recorded(2));

  Pattern untyped;
  untyped.eq("name", "a");
  (void)space_.read(untyped);
  EXPECT_EQ(registry.get("space.query.scan"), recorded(1));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(4));
  EXPECT_EQ(registry.get("space.query.matches"), recorded(3));
  EXPECT_EQ(registry.get("space.query.naive_candidates"), recorded(4));

  // A typed query for an absent tag touches zero candidates.
  (void)space_.read(Pattern::of_type(tuples::MessageTuple::kTag));
  EXPECT_EQ(registry.get("space.query.indexed"), recorded(2));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(4));
}

TEST_F(TupleSpaceTest, PlanCountersRecordPathAndResidual) {
  obs::MetricsRegistry registry;
  space_.bind_metrics(registry);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    space_.put(make_tuple(NodeId{i}, 1, i <= 2 ? "a" : "b", 1), NodeId{9},
               i == 1, SimTime::zero());
  }
  auto msg = std::make_unique<tuples::MessageTuple>();
  msg->set_uid(TupleUid{NodeId{5}, 1});
  space_.put(std::move(msg), NodeId{9}, false, SimTime::zero());

  // Typed: the gradient bucket is walked, and each of its four members
  // reaches field evaluation; the message is never a candidate.
  Pattern typed = Pattern::of_type(GradientTuple::kTag);
  typed.eq("name", "a");
  EXPECT_EQ(space_.read(typed).size(), 2u);
  EXPECT_EQ(registry.get("space.query.indexed"), recorded(1));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(4));
  EXPECT_EQ(registry.get("space.plan.residual_evals"), recorded(4));

  // Untyped without fields: the whole store is scanned and every
  // candidate matches without field evaluation.
  EXPECT_EQ(space_.read(Pattern{}).size(), 5u);
  EXPECT_EQ(registry.get("space.query.scan"), recorded(1));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(9));
  EXPECT_EQ(registry.get("space.plan.residual_evals"), recorded(4));

  // Untyped with fields: the scan evaluates fields on every entry.
  Pattern untyped;
  untyped.eq("name", "b");
  EXPECT_EQ(space_.read(untyped).size(), 2u);
  EXPECT_EQ(registry.get("space.query.scan"), recorded(2));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(14));
  EXPECT_EQ(registry.get("space.plan.residual_evals"), recorded(9));
  EXPECT_EQ(registry.get("space.query.naive_candidates"), recorded(15));
}

TEST_F(TupleSpaceTest, UntypedReadCountsEveryEntryAsCandidateAndMatch) {
  obs::MetricsRegistry registry;
  space_.bind_metrics(registry);
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, true,
             SimTime::zero());
  space_.put(make_tuple(NodeId{2}, 1, "a", 0), NodeId{}, true,
             SimTime::zero());

  const auto all = space_.read(Pattern{});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->uid().origin(), NodeId{1});
  EXPECT_EQ(all[1]->uid().origin(), NodeId{2});
  EXPECT_EQ(registry.get("space.query.scan"), recorded(1));
  EXPECT_EQ(registry.get("space.query.candidates"), recorded(2));
  EXPECT_EQ(registry.get("space.query.matches"), recorded(2));
}

TEST_F(TupleSpaceTest, ListenerSeesInsertReplaceErase) {
  std::vector<std::pair<TupleSpace::ChangeKind, std::uint64_t>> log;
  space_.set_listener(
      [&](TupleSpace::ChangeKind kind, const TupleSpace::Entry& entry) {
        log.emplace_back(kind, entry.tuple->uid().origin().value());
      });
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  space_.put(make_tuple(NodeId{1}, 1, "a", 1), NodeId{2}, false,
             SimTime::zero());
  space_.erase(TupleUid{NodeId{1}, 1});
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, TupleSpace::ChangeKind::kInserted);
  EXPECT_EQ(log[1].first, TupleSpace::ChangeKind::kReplaced);
  EXPECT_EQ(log[2].first, TupleSpace::ChangeKind::kErased);
}

TEST_F(TupleSpaceTest, ListenerSplitsTagChangingReplaceIntoEraseInsert) {
  // A replacement that changes the type tag must read as erase+insert so
  // type-bucketed continuous queries drop the old member.
  std::vector<TupleSpace::ChangeKind> kinds;
  space_.set_listener(
      [&](TupleSpace::ChangeKind kind, const TupleSpace::Entry&) {
        kinds.push_back(kind);
      });
  space_.put(make_tuple(NodeId{1}, 1, "a", 0), NodeId{}, false,
             SimTime::zero());
  auto msg = std::make_unique<tuples::MessageTuple>();
  msg->set_uid(TupleUid{NodeId{1}, 1});
  space_.put(std::move(msg), NodeId{}, false, SimTime::zero());
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], TupleSpace::ChangeKind::kInserted);
  EXPECT_EQ(kinds[1], TupleSpace::ChangeKind::kErased);
  EXPECT_EQ(kinds[2], TupleSpace::ChangeKind::kInserted);
}

TEST_F(TupleSpaceTest, EntryAddressSurvivesGrowthAndReplacement) {
  // The engine holds a `const Entry*` while reactions put and erase other
  // replicas; the entry must stay put however the store's vectors move.
  const TupleUid held{NodeId{500}, 1};
  space_.put(make_tuple(NodeId{500}, 1, "held", 3), NodeId{4}, true,
             SimTime(7));
  const TupleSpace::Entry* entry = space_.find(held);
  ASSERT_NE(entry, nullptr);
  const Tuple* tuple = entry->tuple.get();

  // ~1k uids on both sides of the held one: inserts shift it within the
  // primary vector and both indexes, and regrow all three.
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    space_.put(make_tuple(NodeId{i}, 2, "x", 1), NodeId{i % 5}, i % 2 == 0,
               SimTime::zero());
    if (i % 3 == 0) space_.erase(TupleUid{NodeId{i / 3}, 2});
  }
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    space_.erase(TupleUid{NodeId{i}, 2});
  }
  EXPECT_EQ(space_.size(), 1u);
  EXPECT_EQ(space_.find(held), entry);
  EXPECT_EQ(entry->tuple.get(), tuple);
  EXPECT_EQ(entry->tuple->content().at("name").as_string(), "held");
  EXPECT_EQ(entry->tuple->hop(), 3);
  EXPECT_EQ(entry->type_tag, GradientTuple::kTag);
  EXPECT_EQ(entry->parent, NodeId{4});
  EXPECT_TRUE(entry->propagated);
  EXPECT_EQ(entry->stored_at, SimTime(7));

  // A replacement — even one that changes the type tag — reuses the
  // entry, and the type buckets follow it.
  auto msg = std::make_unique<tuples::MessageTuple>();
  msg->set_uid(held);
  space_.put(std::move(msg), NodeId{6}, false, SimTime::zero());
  EXPECT_EQ(space_.find(held), entry);
  EXPECT_EQ(entry->type_tag, tuples::MessageTuple::kTag);
  EXPECT_TRUE(space_.read(Pattern::of_type(GradientTuple::kTag)).empty());
  EXPECT_EQ(space_.read(Pattern::of_type(tuples::MessageTuple::kTag)),
            (std::vector<TupleHandle>{entry->tuple}));
  EXPECT_TRUE(space_.propagated_uids().empty());
}

// Property: every query, typed or not, returns bit-for-bit what a naive
// full-scan over a reference model returns, across a random churn of
// puts, replaces (including ones that change the type tag), and erases.
// Seeded, so failures reproduce.  `origins` x 4 sequence numbers is the
// uid universe; the store settles near three quarters of it.
void check_against_model(std::uint64_t seed, std::uint64_t origins,
                         int steps, std::size_t min_peak) {
  tuples::register_standard_tuples();

  struct Replica {
    TupleUid uid;
    std::string tag;
    std::string name;
    NodeId parent;
    bool propagated;
  };

  Rng rng(seed);
  TupleSpace space;
  std::vector<Replica> model;  // unsorted reference

  const auto model_find = [&model](const TupleUid& uid) {
    return std::find_if(model.begin(), model.end(),
                        [&uid](const Replica& r) { return r.uid == uid; });
  };
  const auto sorted_model = [&model] {
    auto copy = model;
    std::sort(copy.begin(), copy.end(),
              [](const Replica& a, const Replica& b) { return a.uid < b.uid; });
    return copy;
  };

  const std::vector<std::string> names{"a", "b", "c", "d"};
  std::size_t peak = 0;
  int tag_changes = 0;
  for (int step = 0; step < steps; ++step) {
    const TupleUid uid{NodeId{rng.below(origins) + 1}, rng.below(4) + 1};
    const auto op = rng.below(10);
    if (op < 6) {  // put (or replace)
      const std::string& name = names[rng.below(names.size())];
      const bool gradient = rng.below(4) != 0;
      const NodeId parent{rng.below(5)};  // 0 = invalid/local
      const bool propagated = rng.below(2) == 0;
      std::unique_ptr<Tuple> t;
      if (gradient) {
        t = std::make_unique<GradientTuple>(name);
      } else {
        t = std::make_unique<tuples::MessageTuple>();
        t->content().set("name", name);
      }
      t->set_uid(uid);
      const std::string tag = t->type_tag();
      space.put(std::move(t), parent, propagated, SimTime::zero());
      if (auto it = model_find(uid); it != model.end()) {
        if (it->tag != tag) ++tag_changes;
        model.erase(it);
      }
      model.push_back({uid, tag, name, parent, propagated});
      peak = std::max(peak, model.size());
    } else if (op < 8) {  // erase
      space.erase(uid);
      if (auto it = model_find(uid); it != model.end()) model.erase(it);
    } else {  // query and compare against the naive scan
      Pattern p;
      if (rng.below(2) == 0) {
        p.type(rng.below(2) == 0 ? GradientTuple::kTag
                                 : tuples::MessageTuple::kTag);
      }
      if (rng.below(2) == 0) {
        p.eq("name", names[rng.below(names.size())]);
      }
      const auto got = space.read(p);
      std::vector<TupleUid> got_uids;
      got_uids.reserve(got.size());
      for (const TupleHandle& t : got) got_uids.push_back(t->uid());
      ASSERT_EQ(matching_uids(space, p), got_uids) << "step " << step;

      std::vector<TupleUid> want_uids;
      for (const Replica& r : sorted_model()) {
        const bool type_ok = !p.type_tag() || *p.type_tag() == r.tag;
        const auto* entry = space.find(r.uid);
        ASSERT_NE(entry, nullptr);
        if (type_ok && p.matches(*entry->tuple)) {
          want_uids.push_back(r.uid);
        }
      }
      ASSERT_EQ(got_uids, want_uids) << "step " << step;

      const auto one = space.read_one(p);
      if (want_uids.empty()) {
        EXPECT_EQ(one, nullptr) << "step " << step;
      } else {
        ASSERT_NE(one, nullptr) << "step " << step;
        EXPECT_EQ(one->uid(), want_uids.front()) << "step " << step;
      }
    }
  }
  EXPECT_GE(peak, min_peak);
  EXPECT_GT(tag_changes, 0);
  ASSERT_EQ(space.size(), model.size());

  // The entries and indexes agree with the model at the end of the churn.
  for (const Replica& r : model) {
    const auto* entry = space.find(r.uid);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->parent, r.parent);
    EXPECT_EQ(entry->propagated, r.propagated);
  }
  std::vector<TupleUid> want_propagated;
  for (const Replica& r : sorted_model()) {
    if (r.propagated) want_propagated.push_back(r.uid);
  }
  EXPECT_EQ(space.propagated_uids(), want_propagated);
  for (const char* tag : {GradientTuple::kTag, tuples::MessageTuple::kTag}) {
    std::vector<TupleUid> want;
    for (const Replica& r : sorted_model()) {
      if (r.tag == tag) want.push_back(r.uid);
    }
    EXPECT_EQ(matching_uids(space, Pattern::of_type(tag)), want);
  }
}

TEST(TupleSpacePropertyTest, IndexedQueriesEqualNaiveFullScan) {
  check_against_model(20260807, 40, 2000, 100);
}

TEST(TupleSpacePropertyTest, IndexedQueriesEqualNaiveFullScanAt1kEntries) {
  check_against_model(20261019, 400, 8000, 1000);
}

}  // namespace
}  // namespace tota
