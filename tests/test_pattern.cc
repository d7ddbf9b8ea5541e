// Unit tests for tuple pattern matching.
#include <gtest/gtest.h>

#include "tota/pattern.h"
#include "tuples/gradient_tuple.h"

namespace tota {
namespace {

using tuples::GradientTuple;

GradientTuple make_gradient(const std::string& name, NodeId source, int hop) {
  GradientTuple g(name);
  g.content().set("source", source).set("hopcount", hop);
  return g;
}

TEST(PatternTest, EmptyPatternMatchesEverything) {
  const Pattern p;
  EXPECT_TRUE(p.matches(make_gradient("a", NodeId{1}, 0)));
  EXPECT_TRUE(p.matches(make_gradient("b", NodeId{2}, 9)));
}

TEST(PatternTest, TypeConstraint) {
  const Pattern p = Pattern::of_type(GradientTuple::kTag);
  EXPECT_TRUE(p.matches(make_gradient("a", NodeId{1}, 0)));
  const Pattern q = Pattern::of_type("tota.flock");
  EXPECT_FALSE(q.matches(make_gradient("a", NodeId{1}, 0)));
}

TEST(PatternTest, ExactFieldMatch) {
  Pattern p;
  p.eq("name", "route");
  EXPECT_TRUE(p.matches(make_gradient("route", NodeId{1}, 2)));
  EXPECT_FALSE(p.matches(make_gradient("other", NodeId{1}, 2)));
}

TEST(PatternTest, ExactMatchIsTypeSensitive) {
  Pattern p;
  p.eq("hopcount", 2);
  EXPECT_TRUE(p.matches(make_gradient("x", NodeId{1}, 2)));
  Pattern q;
  q.eq("hopcount", 2.0);  // double != int field
  EXPECT_FALSE(q.matches(make_gradient("x", NodeId{1}, 2)));
}

TEST(PatternTest, ExistsRequiresPresenceOnly) {
  Pattern p;
  p.exists("hopcount");
  EXPECT_TRUE(p.matches(make_gradient("x", NodeId{1}, 0)));
  Pattern q;
  q.exists("no_such_field");
  EXPECT_FALSE(q.matches(make_gradient("x", NodeId{1}, 0)));
}

TEST(PatternTest, PredicateConstraint) {
  Pattern p;
  p.where("hopcount", Pred::ge(3));
  EXPECT_TRUE(p.matches(make_gradient("x", NodeId{1}, 3)));
  EXPECT_FALSE(p.matches(make_gradient("x", NodeId{1}, 2)));
}

TEST(PredTest, OrderedComparisons) {
  EXPECT_TRUE(Pred::lt(3).eval(wire::Value{2}));
  EXPECT_FALSE(Pred::lt(3).eval(wire::Value{3}));
  EXPECT_TRUE(Pred::le(3).eval(wire::Value{3}));
  EXPECT_TRUE(Pred::gt(3).eval(wire::Value{4}));
  EXPECT_FALSE(Pred::ge(3).eval(wire::Value{2}));
  // Mixed int/double compare numerically …
  EXPECT_TRUE(Pred::lt(3.5).eval(wire::Value{3}));
  // … strings lexicographically …
  EXPECT_TRUE(Pred::lt("m").eval(wire::Value{"a"}));
  // … and unordered pairings never match.
  EXPECT_FALSE(Pred::lt("m").eval(wire::Value{3}));
  EXPECT_FALSE(Pred::ge(0).eval(wire::Value{NodeId{1}}));
}

TEST(PredTest, BetweenAnyOfAllOfNe) {
  EXPECT_TRUE(Pred::between(2, 5).eval(wire::Value{2}));
  EXPECT_TRUE(Pred::between(2, 5).eval(wire::Value{5}));
  EXPECT_FALSE(Pred::between(2, 5).eval(wire::Value{6}));
  EXPECT_TRUE(Pred::any_of({wire::Value{"put"}, wire::Value{"get"}})
                  .eval(wire::Value{"get"}));
  EXPECT_FALSE(Pred::any_of({wire::Value{"put"}, wire::Value{"get"}})
                   .eval(wire::Value{"del"}));
  EXPECT_TRUE(Pred::all_of({Pred::ge(2), Pred::lt(5)}).eval(wire::Value{4}));
  EXPECT_FALSE(Pred::all_of({Pred::ge(2), Pred::lt(5)}).eval(wire::Value{5}));
  EXPECT_TRUE(Pred::ne(NodeId{3}).eval(wire::Value{NodeId{4}}));
  EXPECT_FALSE(Pred::ne(NodeId{3}).eval(wire::Value{NodeId{3}}));
}

TEST(PredTest, EqualityIsTypeSensitiveLikeValue) {
  // eq/ne/any_of use exact Value equality: int 2 and double 2.0 differ.
  EXPECT_FALSE(Pred::eq(2.0).eval(wire::Value{2}));
  EXPECT_TRUE(Pred::ne(2.0).eval(wire::Value{2}));
  // Ordered comparisons are the numeric view: 2 <= 2.0 holds.
  EXPECT_TRUE(Pred::le(2.0).eval(wire::Value{2}));
}

TEST(PredTest, CodecRoundTrip) {
  const Pred original = Pred::all_of(
      {Pred::between(1, 7), Pred::any_of({wire::Value{3}, wire::Value{5}}),
       Pred::ne(4)});
  wire::Writer w;
  original.encode(w);
  wire::Reader r(w.bytes());
  const Pred decoded = Pred::decode(r);
  r.expect_done();
  EXPECT_EQ(decoded, original);
  EXPECT_TRUE(decoded.eval(wire::Value{5}));
  EXPECT_FALSE(decoded.eval(wire::Value{4}));
}

TEST(PredTest, DecodeRejectsGarbage) {
  {
    wire::Writer w;
    w.u8(0xEE);  // unknown op
    wire::Reader r(w.bytes());
    EXPECT_THROW((void)Pred::decode(r), wire::DecodeError);
  }
  {
    // all_of nested beyond the depth limit.
    wire::Writer w;
    for (int i = 0; i < 12; ++i) {
      w.u8(9);  // kAllOf
      w.uvarint(1);
    }
    w.u8(0);  // kExists leaf
    wire::Reader r(w.bytes());
    EXPECT_THROW((void)Pred::decode(r), wire::DecodeError);
  }
  {
    // any_of claiming more options than the width limit.
    wire::Writer w;
    w.u8(8);  // kAnyOf
    w.uvarint(1u << 20);
    wire::Reader r(w.bytes());
    EXPECT_THROW((void)Pred::decode(r), wire::DecodeError);
  }
}

TEST(PatternTest, AllConstraintsMustHold) {
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.eq("name", "route").eq("source", NodeId{5});
  EXPECT_TRUE(p.matches(make_gradient("route", NodeId{5}, 1)));
  EXPECT_FALSE(p.matches(make_gradient("route", NodeId{6}, 1)));
  EXPECT_FALSE(p.matches(make_gradient("x", NodeId{5}, 1)));
}

TEST(PatternTest, MissingFieldFailsEvenForPredicate) {
  Pattern p;
  p.where("absent", Pred::exists());
  EXPECT_FALSE(p.matches(make_gradient("x", NodeId{1}, 0)));
  Pattern q;
  q.where("absent", Pred::ne(1));  // "not 1" still requires presence
  EXPECT_FALSE(q.matches(make_gradient("x", NodeId{1}, 0)));
}

TEST(PatternTest, EquivalenceComparesStructure) {
  Pattern a = Pattern::of_type("t");
  a.eq("f", 1).exists("g");
  Pattern b = Pattern::of_type("t");
  b.eq("f", 1).exists("g");
  EXPECT_TRUE(a.equivalent(b));

  Pattern c = Pattern::of_type("t");
  c.eq("f", 2).exists("g");
  EXPECT_FALSE(a.equivalent(c));

  Pattern d = Pattern::of_type("u");
  d.eq("f", 1).exists("g");
  EXPECT_FALSE(a.equivalent(d));
}

TEST(PatternTest, PredicatePatternsCompareStructurally) {
  // Regression: where() clauses used to be opaque std::functions that
  // never compared equal, breaking unsubscribe(template) for predicate
  // patterns.  As ASTs they compare by structure.
  Pattern a;
  a.where("f", Pred::between(1, 5));
  Pattern b;
  b.where("f", Pred::between(1, 5));
  EXPECT_TRUE(a.equivalent(b));

  Pattern c;
  c.where("f", Pred::between(1, 6));
  EXPECT_FALSE(a.equivalent(c));
  Pattern d;
  d.where("f", Pred::le(5));
  EXPECT_FALSE(a.equivalent(d));
}

TEST(PatternTest, CodecRoundTrip) {
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.eq("name", "route").where("hopcount", Pred::le(3));
  wire::Writer w;
  p.encode(w);
  wire::Reader r(w.bytes());
  const Pattern decoded = Pattern::decode(r);
  r.expect_done();
  EXPECT_TRUE(decoded.equivalent(p));
  EXPECT_TRUE(decoded.matches(make_gradient("route", NodeId{1}, 2)));
  EXPECT_FALSE(decoded.matches(make_gradient("route", NodeId{1}, 4)));
}

TEST(PatternTest, DecodeRejectsUnknownFlags) {
  // Only the type bit is a flag.  Each input below is otherwise well
  // formed — 0x02 and 0x04 followed by the value they once announced
  // (a parent id, a propagated flag) — so the flags byte alone is what
  // decode rejects.
  const std::vector<std::vector<std::uint8_t>> inputs{
      {0x80, 0x00}, {0x02, 0x09, 0x00}, {0x04, 0x01, 0x00}};
  for (const auto& bytes : inputs) {
    wire::Reader r(bytes);
    EXPECT_THROW((void)Pattern::decode(r), wire::DecodeError)
        << "flags " << int{bytes[0]};
  }
}

TEST(PatternTest, StrIsReadable) {
  Pattern p = Pattern::of_type("t");
  p.eq("f", 1).exists("g").where("h", Pred::le(3));
  EXPECT_EQ(p.str(), "t{f=1, g?, h<=3}");
}

}  // namespace
}  // namespace tota
