// Unit tests for the standard tuple library: hook behaviour evaluated
// against hand-built contexts, and wire round-trips for every class.
#include <gtest/gtest.h>

#include "tota/tuple_space.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;

class TuplesTest : public ::testing::Test {
 protected:
  void SetUp() override { register_standard_tuples(); }

  Context ctx(int hop, Vec2 position = {}) {
    return Context{NodeId{1}, NodeId{2}, hop,  SimTime::zero(),
                   position,  space_,    rng_, nullptr};
  }

  TupleSpace space_;
  Rng rng_{7};
};

TEST_F(TuplesTest, FieldTupleMaintainsCoreFields) {
  GradientTuple g("f");
  g.change_content(ctx(0, Vec2{3, 4}));
  EXPECT_EQ(g.source(), NodeId{1});
  EXPECT_EQ(g.hopcount(), 0);
  EXPECT_EQ(g.content().at("origin_pos").as_vec2(), (Vec2{3, 4}));

  g.change_content(ctx(4));
  EXPECT_EQ(g.hopcount(), 4);
  // Source fields are only stamped at the source.
  EXPECT_EQ(g.source(), NodeId{1});
  EXPECT_EQ(g.content().at("origin_pos").as_vec2(), (Vec2{3, 4}));
}

TEST_F(TuplesTest, FieldTupleScopeBoundsPropagation) {
  GradientTuple g("f", /*scope=*/3);
  EXPECT_TRUE(g.decide_enter(ctx(3)));
  EXPECT_FALSE(g.decide_enter(ctx(4)));
  EXPECT_TRUE(g.decide_propagate(ctx(2)));
  EXPECT_FALSE(g.decide_propagate(ctx(3)));
}

TEST_F(TuplesTest, FieldTupleUnboundedPropagatesForever) {
  GradientTuple g("f");
  EXPECT_TRUE(g.decide_enter(ctx(10'000)));
  EXPECT_TRUE(g.decide_propagate(ctx(10'000)));
}

TEST_F(TuplesTest, FieldTupleSupersedesByHop) {
  GradientTuple nearer("f");
  nearer.set_hop(2);
  GradientTuple farther("f");
  farther.set_hop(5);
  // The stored replica answers for the arriving copy's hop alone.
  EXPECT_TRUE(farther.superseded_by(nearer.hop()));
  EXPECT_FALSE(nearer.superseded_by(farther.hop()));
  EXPECT_FALSE(nearer.superseded_by(nearer.hop()));
}

TEST_F(TuplesTest, FieldTupleScopeSurvivesWire) {
  GradientTuple g("f", 7);
  g.set_uid(TupleUid{NodeId{1}, 1});
  wire::Writer w;
  g.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  const auto& field = static_cast<const FieldTuple&>(*decoded);
  EXPECT_EQ(field.scope(), 7);
}

TEST_F(TuplesTest, EncodingIsHeaderThenContentThenExtras) {
  // The tuple encoding, byte for byte: header, content record, subclass
  // extras, and nothing in between.
  GradientTuple g("f", 7);
  const TupleUid uid{NodeId{3}, 42};
  g.set_uid(uid);
  g.set_hop(5);
  wire::Writer actual;
  g.encode(actual);

  wire::Writer expected;
  TupleHeader{GradientTuple::kTag, uid, 5}.write(expected);
  wire::Record content;
  content.set("name", "f");
  content.encode(expected);
  expected.svarint(7);  // FieldTuple's extras: its scope
  EXPECT_EQ(actual.bytes(), expected.bytes());
}

TEST_F(TuplesTest, FieldTupleScopeBoundaryValuesRoundTrip) {
  // The full legal range survives the wire: unbounded (-1), the local
  // degenerate (0), and the decoder's upper bound (2^24).
  for (const int scope :
       {FieldTuple::kUnbounded, 0, FieldTuple::kMaxScope}) {
    GradientTuple g("f", scope);
    g.set_uid(TupleUid{NodeId{1}, 1});
    wire::Writer w;
    g.encode(w);
    wire::Reader r(w.bytes());
    const auto decoded = Tuple::decode(r);
    EXPECT_EQ(static_cast<const FieldTuple&>(*decoded).scope(), scope)
        << "scope " << scope;
  }
}

TEST_F(TuplesTest, FieldTupleScopeSetterRejectsWhatTheDecoderRejects) {
  // The setter and decode_extra enforce the same [-1, 2^24] range — a
  // locally constructible scope can no longer be un-decodable remotely.
  EXPECT_THROW(GradientTuple("f", -2), std::invalid_argument);
  EXPECT_THROW(GradientTuple("f", FieldTuple::kMaxScope + 1),
               std::invalid_argument);
  GradientTuple g("f");
  EXPECT_THROW(g.set_scope(-7), std::invalid_argument);
  g.set_scope(FieldTuple::kMaxScope);
  EXPECT_EQ(g.scope(), FieldTuple::kMaxScope);
}

TEST_F(TuplesTest, FlockValIsVShaped) {
  FlockTuple f(/*target_distance=*/3);
  const int expected[] = {3, 2, 1, 0, 1, 2, 3};
  for (int hop = 0; hop <= 6; ++hop) {
    f.change_content(ctx(hop));
    EXPECT_EQ(f.val(), expected[hop]) << "hop " << hop;
  }
}

TEST_F(TuplesTest, FlockTargetSurvivesWire) {
  FlockTuple f(4, 8);
  f.set_uid(TupleUid{NodeId{1}, 1});
  f.change_content(ctx(0));
  wire::Writer w;
  f.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  auto& flock = static_cast<FlockTuple&>(*decoded);
  EXPECT_EQ(flock.target_distance(), 4);
  EXPECT_EQ(flock.scope(), 8);
  flock.change_content(ctx(6));
  EXPECT_EQ(flock.val(), 2);
}

TEST_F(TuplesTest, AdvertCarriesLocationAndDistance) {
  AdvertTuple a("temperature");
  a.change_content(ctx(0, Vec2{10, 20}));
  EXPECT_EQ(a.description(), "temperature");
  EXPECT_EQ(a.location(), (Vec2{10, 20}));
  EXPECT_EQ(a.distance(), 0);
  a.change_content(ctx(5, Vec2{99, 99}));
  EXPECT_EQ(a.location(), (Vec2{10, 20}));  // still the source position
  EXPECT_EQ(a.distance(), 5);
}

TEST_F(TuplesTest, QueryExposesHome) {
  QueryTuple q("gas station", 10);
  q.change_content(ctx(0));
  EXPECT_EQ(q.what(), "gas station");
  EXPECT_EQ(q.home(), NodeId{1});
  EXPECT_EQ(q.scope(), 10);
}

TEST_F(TuplesTest, QueryPredicateSurvivesWireRoundTrip) {
  // A query can carry a full Pattern (docs/QUERY.md): the predicate is
  // encoded into the content, so it rides the normal tuple codec to
  // remote nodes and decodes back to an equivalent pattern.
  QueryTuple q("fuel", 6);
  q.set_uid(TupleUid{NodeId{3}, 7});
  Pattern wanted = Pattern::of_type(AdvertTuple::kTag);
  wanted.eq("name", "gas station")
      .where("distance", Pred::le(4));
  q.with_predicate(wanted);
  ASSERT_TRUE(q.has_predicate());

  wire::Writer w;
  q.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  r.expect_done();
  auto& remote = static_cast<QueryTuple&>(*decoded);
  ASSERT_TRUE(remote.has_predicate());
  const auto back = remote.predicate();
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->equivalent(wanted));

  AdvertTuple close("gas station");
  close.change_content(ctx(2, Vec2{0, 0}));
  AdvertTuple far("gas station");
  far.change_content(ctx(9, Vec2{0, 0}));
  EXPECT_TRUE(back->matches(close));
  EXPECT_FALSE(back->matches(far));

  // A plain query has no predicate, and asking is cheap and safe.
  QueryTuple bare("fuel");
  EXPECT_FALSE(bare.has_predicate());
  EXPECT_EQ(bare.predicate(), std::nullopt);
}

// --- MessageTuple routing decisions --------------------------------------

class MessageTest : public TuplesTest {
 protected:
  /// Installs a structure replica (as stored on this node) with the given
  /// hopcount, sourced at `source`.
  void put_structure(NodeId source, int hopcount,
                     const std::string& name = "structure") {
    auto g = std::make_unique<GradientTuple>(name);
    g->set_uid(TupleUid{source, 1});
    g->set_hop(hopcount);
    g->content().set("source", source).set("hopcount", hopcount);
    space_.put(std::move(g), NodeId{2}, true, SimTime::zero());
  }

};

TEST_F(MessageTest, DestinationAlwaysEnters) {
  MessageTuple m(NodeId{1}, "hi", "structure");
  m.set_hop(4);
  EXPECT_TRUE(m.decide_enter(ctx(4)));
  EXPECT_TRUE(m.decide_store(ctx(4)));
  EXPECT_FALSE(m.decide_propagate(ctx(4)));
}

TEST_F(MessageTest, FloodsWhereNoStructure) {
  MessageTuple m(NodeId{5}, "hi", "structure");
  m.set_hop(2);
  EXPECT_TRUE(m.decide_enter(ctx(2)));
  EXPECT_FALSE(m.decide_store(ctx(2)));
  EXPECT_TRUE(m.decide_propagate(ctx(2)));
}

TEST_F(MessageTest, DescendsGradientStrictly) {
  put_structure(NodeId{5}, 4);
  MessageTuple m(NodeId{5}, "hi", "structure");
  // Simulate the relay chain: first node had structure 6.
  m.change_content(ctx(0));
  put_structure(NodeId{5}, 6);
  m.change_content(ctx(1));  // best_ becomes 6
  put_structure(NodeId{5}, 4);
  EXPECT_TRUE(m.decide_enter(ctx(2)));  // 4 < 6: downhill
  m.change_content(ctx(2));             // best_ becomes 4
  put_structure(NodeId{5}, 4);
  EXPECT_FALSE(m.decide_enter(ctx(3)));  // 4 !< 4: sideways rejected
  put_structure(NodeId{5}, 5);
  EXPECT_FALSE(m.decide_enter(ctx(3)));  // uphill rejected
}

TEST_F(MessageTest, StructureNamePinsTheField) {
  put_structure(NodeId{5}, 1, "other");
  MessageTuple pinned(NodeId{5}, "hi", "structure");
  // "other" field must be invisible to a message pinned to "structure".
  pinned.change_content(ctx(1));
  EXPECT_FALSE(pinned.best().has_value());

  MessageTuple any(NodeId{5}, "hi");  // unpinned: any field to receiver
  any.change_content(ctx(1));
  EXPECT_TRUE(any.best().has_value());
}

TEST_F(MessageTest, FallsBackToFloodPastStructureGap) {
  put_structure(NodeId{5}, 6);
  MessageTuple m(NodeId{5}, "hi", "structure");
  m.change_content(ctx(1));  // best_ = 6
  space_.take(Pattern{});    // structure vanishes downstream
  EXPECT_TRUE(m.decide_enter(ctx(2)));  // no local structure: flood on
}

TEST_F(MessageTest, StrictModeDiesAtStructureGaps) {
  MessageTuple m(NodeId{5}, "hi", "structure", /*strict=*/true);
  m.set_hop(2);
  // No structure here: a strict message refuses to enter (no flooding).
  EXPECT_FALSE(m.decide_enter(ctx(2)));

  put_structure(NodeId{5}, 3);
  EXPECT_TRUE(m.decide_enter(ctx(2)));  // structure present, best unset
  m.change_content(ctx(2));             // best = 3
  put_structure(NodeId{5}, 3);
  EXPECT_FALSE(m.decide_enter(ctx(3)));  // sideways rejected even strictly
  put_structure(NodeId{5}, 2);
  EXPECT_TRUE(m.decide_enter(ctx(3)));  // downhill ok
}

TEST_F(MessageTest, StrictFlagSurvivesWire) {
  MessageTuple m(NodeId{5}, "hi", "s", /*strict=*/true);
  m.set_uid(TupleUid{NodeId{9}, 1});
  m.content().set("sender", NodeId{9});
  wire::Writer w;
  m.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  auto& msg = static_cast<MessageTuple&>(*decoded);
  // Behavioural check: without structure, the decoded copy still refuses.
  EXPECT_FALSE(msg.decide_enter(ctx(2)));
}

TEST_F(MessageTest, StrictDestinationStillEnters) {
  MessageTuple m(NodeId{1}, "hi", "structure", /*strict=*/true);
  m.set_hop(3);
  EXPECT_TRUE(m.decide_enter(ctx(3)));  // ctx.self == NodeId{1}
}

TEST_F(MessageTest, ContentRoundTrip) {
  MessageTuple m(NodeId{5}, "payload text", "structure");
  m.set_uid(TupleUid{NodeId{9}, 1});
  m.content().set("sender", NodeId{9});
  wire::Writer w;
  m.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  const auto& msg = static_cast<const MessageTuple&>(*decoded);
  EXPECT_EQ(msg.receiver(), NodeId{5});
  EXPECT_EQ(msg.sender(), NodeId{9});
  EXPECT_EQ(msg.payload(), "payload text");
  EXPECT_FALSE(msg.maintained());
}

TEST_F(MessageTest, AnswerDescendsQueryFieldOnly) {
  // A gradient to the receiver exists, but answers only ride query fields.
  put_structure(NodeId{5}, 3);
  AnswerTuple a(NodeId{5}, "temp?", "21C");
  a.change_content(ctx(1));
  EXPECT_FALSE(a.best().has_value());

  auto q = std::make_unique<QueryTuple>("temp?");
  q->set_uid(TupleUid{NodeId{5}, 2});
  q->set_hop(2);
  q->content().set("source", NodeId{5}).set("hopcount", 2);
  space_.put(std::move(q), NodeId{2}, true, SimTime::zero());
  a.change_content(ctx(2));
  ASSERT_TRUE(a.best().has_value());
  EXPECT_EQ(*a.best(), 2);
  EXPECT_EQ(a.query_what(), "temp?");
}

// --- spatially scoped tuples ------------------------------------------------

TEST_F(TuplesTest, SpaceTupleRespectsRadius) {
  SpaceTuple s("zone", /*radius_m=*/50.0);
  s.change_content(ctx(0, Vec2{100, 100}));
  EXPECT_EQ(s.origin(), (Vec2{100, 100}));

  EXPECT_TRUE(s.decide_enter(ctx(1, Vec2{120, 100})));   // 20 m away
  EXPECT_TRUE(s.decide_enter(ctx(1, Vec2{150, 100})));   // exactly 50 m
  EXPECT_FALSE(s.decide_enter(ctx(1, Vec2{151, 100})));  // outside
}

TEST_F(TuplesTest, SpaceTupleTracksDistance) {
  SpaceTuple s("zone", 50.0);
  s.change_content(ctx(0, Vec2{0, 0}));
  s.change_content(ctx(1, Vec2{30, 40}));
  EXPECT_DOUBLE_EQ(s.distance_m(), 50.0);
}

TEST_F(TuplesTest, SpaceTupleRadiusSurvivesWire) {
  SpaceTuple s("zone", 42.5);
  s.set_uid(TupleUid{NodeId{1}, 1});
  s.change_content(ctx(0, Vec2{1, 2}));
  wire::Writer w;
  s.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  EXPECT_DOUBLE_EQ(static_cast<const SpaceTuple&>(*decoded).radius_m(), 42.5);
}

TEST_F(TuplesTest, DirectionTupleConfinesSector) {
  // Bearing +x, half angle 45 degrees, origin at (0,0).
  DirectionTuple d("beam", Vec2{1, 0}, 3.14159265 / 4.0);
  d.change_content(ctx(0, Vec2{0, 0}));

  EXPECT_TRUE(d.decide_enter(ctx(1, Vec2{-5, 0})));    // first hop exempt
  EXPECT_TRUE(d.decide_enter(ctx(2, Vec2{10, 0})));    // straight ahead
  EXPECT_TRUE(d.decide_enter(ctx(2, Vec2{10, 9})));    // inside the cone
  EXPECT_FALSE(d.decide_enter(ctx(2, Vec2{0, 10})));   // perpendicular
  EXPECT_FALSE(d.decide_enter(ctx(2, Vec2{-10, 0})));  // behind
}

TEST_F(TuplesTest, FloodTupleCarriesPayload) {
  FloodTuple f("alert", wire::Value{"evacuate"});
  EXPECT_EQ(f.payload().as_string(), "evacuate");
  EXPECT_TRUE(f.decide_propagate(ctx(100)));
}

TEST_F(TuplesTest, ModifierRoundTripPreservesSpec) {
  ModifierTuple m(GradientTuple::kTag,
                  {{"name", wire::Value{"x"}}, {"hopcount", wire::Value{3}}},
                  5);
  m.set_uid(TupleUid{NodeId{1}, 1});
  wire::Writer w;
  m.encode(w);
  wire::Reader r(w.bytes());
  const auto decoded = Tuple::decode(r);
  EXPECT_EQ(decoded->type_tag(), ModifierTuple::kTag);
  EXPECT_FALSE(decoded->decide_store(ctx(1)));
  EXPECT_TRUE(decoded->decide_propagate(ctx(4)));
  EXPECT_FALSE(decoded->decide_propagate(ctx(5)));
}

TEST_F(TuplesTest, CloneIsDeepAndPreservesType) {
  FlockTuple f(3, 9);
  f.set_uid(TupleUid{NodeId{4}, 17});
  f.set_hop(2);
  f.change_content(ctx(2));
  const auto copy = f.clone();
  EXPECT_EQ(copy->type_tag(), FlockTuple::kTag);
  EXPECT_EQ(copy->uid(), f.uid());
  EXPECT_EQ(copy->hop(), 2);
  EXPECT_EQ(copy->content(), f.content());
}

TEST_F(TuplesTest, EveryStandardTagIsRegistered) {
  for (const char* tag :
       {GradientTuple::kTag, FloodTuple::kTag, FlockTuple::kTag,
        AdvertTuple::kTag, QueryTuple::kTag, MessageTuple::kTag,
        AnswerTuple::kTag, SpaceTuple::kTag, DirectionTuple::kTag,
        ModifierTuple::kTag}) {
    EXPECT_TRUE(tuple_registry().knows(tag)) << tag;
  }
}

}  // namespace
}  // namespace tota
