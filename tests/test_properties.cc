// Property-based tests: invariants checked across parameterized sweeps of
// random topologies, seeds and dynamics.
//
//  P1  Gradient correctness: after quiescence, every node's replica
//      hopcount equals the BFS distance oracle, on arbitrary topologies.
//  P2  Maintenance convergence: the same invariant holds again after
//      arbitrary topology edits (moves, deaths, births).
//  P3  Serialization totality: decode(encode(t)) == t for randomized
//      tuples, and random byte garbage never crashes the engine.
//  P4  Broadcast economy: a single flood costs exactly one transmission
//      per reached node (the multicast-socket property the paper relies
//      on for "really simple devices").
//  P9  Query soundness: every read — a typed one walking its type bucket,
//      an untyped one scanning the store — returns exactly what a naive
//      full scan with the direct matcher returns, across random store
//      churn and typed, untyped and field-predicate patterns.
//  P10 Continuous-query soundness: the incrementally maintained result
//      set of a standing query always equals re-running the query from
//      scratch.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "emu/sharded_world.h"
#include "obs_expect.h"
#include "tota/tuple_space.h"
#include "tuples/aggregator.h"
#include "tuples/all.h"

namespace tota {
namespace {

using namespace tota::tuples;
using tota::testing::recorded;

emu::ShardedWorld::Options options(std::uint64_t seed) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = 100.0;
  o.net.seed = seed;
  return o;
}

::testing::AssertionResult gradient_matches_oracle(
    const emu::ShardedWorld& world, NodeId source) {
  const auto oracle = world.net().topology().hop_distances(source);
  const Pattern p = Pattern::of_type(GradientTuple::kTag);
  for (const NodeId n : world.nodes()) {
    const auto replica = world.mw(n).read_one(p);
    const auto it = oracle.find(n);
    if (it == oracle.end()) {
      if (replica) {
        return ::testing::AssertionFailure()
               << to_string(n) << " unreachable but holds a replica";
      }
      continue;
    }
    if (!replica) {
      return ::testing::AssertionFailure()
             << to_string(n) << " missing replica (oracle d=" << it->second
             << ")";
    }
    if (replica->content().at("hopcount").as_int() != it->second) {
      return ::testing::AssertionFailure()
             << to_string(n) << " hopcount="
             << replica->content().at("hopcount").as_int() << " oracle="
             << it->second;
    }
  }
  return ::testing::AssertionSuccess();
}

// --- P1: gradient == BFS on random topologies -------------------------------

class GradientProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GradientProperty, MatchesBfsOnRandomTopology) {
  emu::ShardedWorld world(options(GetParam()));
  world.spawn_random(40, Rect{{0, 0}, {500, 500}});
  world.run_for(SimTime::from_seconds(1));
  const auto nodes = world.nodes();
  const NodeId source = nodes[GetParam() % nodes.size()];
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(5));
  EXPECT_TRUE(gradient_matches_oracle(world, source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- P2: maintenance re-converges after random edits -------------------------

class MaintenanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaintenanceProperty, ReconvergesAfterRandomChurn) {
  const std::uint64_t seed = GetParam();
  emu::ShardedWorld world(options(seed));
  world.spawn_random(30, Rect{{0, 0}, {400, 400}});
  world.run_for(SimTime::from_seconds(1));
  auto nodes = world.nodes();
  const NodeId source = nodes[0];
  world.mw(source).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(5));
  ASSERT_TRUE(gradient_matches_oracle(world, source));

  // Random edit script driven by the seed: moves, deaths, births.
  Rng script(seed * 1000 + 17);
  for (int round = 0; round < 6; ++round) {
    nodes = world.nodes();
    const auto op = script.below(3);
    if (op == 0 && nodes.size() > 5) {
      NodeId victim = nodes[script.below(nodes.size())];
      if (victim == source) victim = nodes.back() == source ? nodes.front()
                                                            : nodes.back();
      if (victim != source) world.despawn(victim);
    } else if (op == 1) {
      const NodeId mover = nodes[script.below(nodes.size())];
      if (world.net().alive(mover)) {
        world.net().move_node(
            mover, {script.uniform(0, 400), script.uniform(0, 400)});
      }
    } else {
      world.spawn({script.uniform(0, 400), script.uniform(0, 400)});
    }
    world.run_for(SimTime::from_millis(500));
  }
  world.run_for(SimTime::from_seconds(10));
  EXPECT_TRUE(gradient_matches_oracle(world, source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenanceProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// --- P3: serialization totality ------------------------------------------------

class SerializationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

std::unique_ptr<Tuple> random_tuple(Rng& rng) {
  const auto pick = rng.below(6);
  std::unique_ptr<Tuple> t;
  const std::string name = "n" + std::to_string(rng.below(1000));
  switch (pick) {
    case 0:
      t = std::make_unique<GradientTuple>(
          name, static_cast<int>(rng.below(20)) - 1);
      break;
    case 1:
      t = std::make_unique<FlockTuple>(static_cast<int>(rng.below(9)),
                                       static_cast<int>(rng.below(20)) - 1);
      break;
    case 2:
      t = std::make_unique<AdvertTuple>(name);
      break;
    case 3:
      t = std::make_unique<QueryTuple>(name);
      break;
    case 4:
      t = std::make_unique<MessageTuple>(NodeId{1 + rng.below(100)}, name,
                                         rng.chance(0.5) ? "s" : "");
      break;
    default:
      t = std::make_unique<SpaceTuple>(name, rng.uniform(0, 500));
      break;
  }
  t->set_uid(TupleUid{NodeId{1 + rng.below(100)}, rng.below(1000)});
  t->set_hop(static_cast<int>(rng.below(30)));
  if (rng.chance(0.5)) t->content().set("extra", rng.uniform());
  if (rng.chance(0.3)) t->content().set("flag", rng.chance(0.5));
  if (rng.chance(0.3)) {
    t->content().set("pos", Vec2{rng.uniform(-9, 9), rng.uniform(-9, 9)});
  }
  return t;
}

TEST_P(SerializationProperty, RoundTripIsIdentity) {
  tuples::register_standard_tuples();
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto original = random_tuple(rng);
    wire::Writer w;
    original->encode(w);
    wire::Reader r(w.bytes());
    const auto decoded = Tuple::decode(r);
    r.expect_done();
    EXPECT_EQ(decoded->type_tag(), original->type_tag());
    EXPECT_EQ(decoded->uid(), original->uid());
    EXPECT_EQ(decoded->hop(), original->hop());
    EXPECT_EQ(decoded->content(), original->content());
    // And the copy re-encodes to identical bytes (canonical encoding).
    wire::Writer w2;
    decoded->encode(w2);
    EXPECT_EQ(w2.bytes(), w.bytes());
  }
}

TEST_P(SerializationProperty, GarbageNeverCrashesTheDecoder) {
  tuples::register_standard_tuples();
  Rng rng(GetParam() + 999);
  for (int i = 0; i < 500; ++i) {
    wire::Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    wire::Reader r(junk);
    try {
      const auto t = Tuple::decode(r);
      (void)t;  // rare but legitimate: junk can parse as a valid tuple
    } catch (const wire::DecodeError&) {
    } catch (const wire::UnknownTypeError&) {
    }
  }
  SUCCEED();
}

TEST_P(SerializationProperty, TruncationAlwaysThrows) {
  tuples::register_standard_tuples();
  Rng rng(GetParam() + 555);
  const auto tuple = random_tuple(rng);
  wire::Writer w;
  tuple->encode(w);
  const auto full = w.take();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    wire::Bytes prefix(full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(cut));
    wire::Reader r(prefix);
    bool threw_or_leftover = false;
    try {
      const auto t = Tuple::decode(r);
      (void)t;
    } catch (const wire::DecodeError&) {
      threw_or_leftover = true;
    } catch (const wire::UnknownTypeError&) {
      threw_or_leftover = true;
    }
    // Prefixes that happen to parse are acceptable only if they consumed
    // the whole prefix (self-delimiting encoding has no trailing check
    // here); all others must throw.
    EXPECT_TRUE(threw_or_leftover || r.remaining() == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationProperty,
                         ::testing::Values(101, 102, 103));

// --- P4: broadcast economy ----------------------------------------------------

class BroadcastProperty : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastProperty, OneTransmissionPerNodePerFlood) {
  const int side = GetParam();
  auto o = options(static_cast<std::uint64_t>(side));
  // Zero jitter: with identical per-hop delays the first copy a node
  // hears is always a shortest-path copy, so no supersede re-broadcasts.
  // (With jitter, an occasional longer-path copy arrives first and is
  // later superseded — allowed, but not what this property pins down.)
  o.net.radio.jitter = SimTime::zero();
  emu::ShardedWorld world(o);
  const auto nodes = world.spawn_grid(side, side, 80.0);
  world.run_for(SimTime::from_seconds(1));
  const auto before = world.metrics().get("radio.tx");
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("f"));
  world.run_for(SimTime::from_seconds(5));
  const auto cost = world.metrics().get("radio.tx") - before;
  // Breadth-first flooding over a broadcast medium: each node announces
  // the tuple exactly once (supersede storms would show up here).
  EXPECT_EQ(cost, recorded(static_cast<std::int64_t>(nodes.size())));
}

INSTANTIATE_TEST_SUITE_P(GridSides, BroadcastProperty,
                         ::testing::Values(2, 3, 4, 5, 6));

// --- P5: scope cuts the ring at exactly `scope` hops --------------------------

class ScopeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScopeProperty, ExactlyScopePlusOneHoldersOnALine) {
  const int scope = GetParam();
  emu::ShardedWorld world(options(50));
  const auto line = world.spawn_grid(1, 10, 80.0);
  world.run_for(SimTime::from_seconds(1));
  world.mw(line[0]).inject(std::make_unique<GradientTuple>("ring", scope));
  world.run_for(SimTime::from_seconds(3));
  int holders = 0;
  for (const NodeId n : line) {
    if (!world.mw(n).read(Pattern{}).empty()) ++holders;
  }
  EXPECT_EQ(holders, std::min(scope + 1, 10));
}

INSTANTIATE_TEST_SUITE_P(Scopes, ScopeProperty,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 20));

// --- P6: metric radius cuts space at exactly radius metres --------------------

class RadiusProperty : public ::testing::TestWithParam<int> {};

TEST_P(RadiusProperty, HoldersMatchMetricRadiusOnALine) {
  const double radius = GetParam();
  emu::ShardedWorld world(options(51));
  const auto line = world.spawn_grid(1, 10, 80.0);  // nodes at 0,80,…,720
  world.run_for(SimTime::from_seconds(1));
  world.mw(line[0]).inject(std::make_unique<SpaceTuple>("zone", radius));
  world.run_for(SimTime::from_seconds(3));
  for (std::size_t i = 0; i < line.size(); ++i) {
    const bool expect_inside = 80.0 * static_cast<double>(i) <= radius;
    EXPECT_EQ(!world.mw(line[i]).read(Pattern{}).empty(), expect_inside)
        << "node " << i << " radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(RadiiMetres, RadiusProperty,
                         ::testing::Values(0, 79, 80, 200, 400, 1000));

// --- P7: bit-for-bit determinism of full dynamic scenarios --------------------

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, IdenticalSeedsGiveIdenticalRuns) {
  auto fingerprint = [&](std::uint64_t seed) {
    auto o = options(seed);
    o.net.radio.loss_probability = 0.1;
    emu::ShardedWorld world(o);
    const Rect arena{{0, 0}, {400, 400}};
    world.spawn_random(25, arena, [&](Rng&) {
      return std::make_unique<sim::RandomWaypoint>(arena, 1.0, 6.0);
    });
    world.run_for(SimTime::from_seconds(1));
    const auto nodes = world.nodes();
    world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("f"));
    world.mw(nodes[5]).inject(std::make_unique<FlockTuple>(2, 6));
    world.run_for(SimTime::from_seconds(10));
    // Fingerprint: counters plus the full replica census.
    std::uint64_t fp = 1469598103934665603ull;
    auto mix = [&fp](std::uint64_t v) {
      fp = (fp ^ v) * 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(world.metrics().get("radio.tx")));
    mix(static_cast<std::uint64_t>(world.metrics().get("radio.rx")));
    for (const NodeId n : world.nodes()) {
      mix(n.value());
      for (const auto& t : world.mw(n).read(Pattern{})) {
        mix(t->content().hash());
      }
    }
    return fp;
  };
  const std::uint64_t seed = GetParam();
  EXPECT_EQ(fingerprint(seed), fingerprint(seed));
  // And different seeds genuinely differ (sanity that the fingerprint
  // sees the dynamics).
  EXPECT_NE(fingerprint(seed), fingerprint(seed + 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(201, 202, 203));

// --- P8: decode_failures stays zero across healthy dynamic runs ---------------

class HealthProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HealthProperty, NoDecodeFailuresUnderChurnAndMobility) {
  auto o = options(GetParam());
  emu::ShardedWorld world(o);
  const Rect arena{{0, 0}, {400, 400}};
  world.spawn_random(20, arena, [&](Rng&) {
    return std::make_unique<sim::RandomWaypoint>(arena, 2.0, 8.0);
  });
  world.run_for(SimTime::from_seconds(1));
  auto nodes = world.nodes();
  world.mw(nodes[0]).inject(std::make_unique<GradientTuple>("f"));
  world.mw(nodes[1]).inject(std::make_unique<AdvertTuple>("sensor"));
  world.mw(nodes[2]).inject(std::make_unique<QueryTuple>("sensor", 6));
  world.run_for(SimTime::from_seconds(5));
  world.despawn(nodes[3]);
  world.spawn({200, 200});
  world.run_for(SimTime::from_seconds(5));
  for (const NodeId n : world.nodes()) {
    EXPECT_EQ(world.mw(n).engine().decode_failures(), 0u) << to_string(n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealthProperty,
                         ::testing::Values(301, 302, 303, 304));

// --- P9: reads ≡ naive full scan ---------------------------------------------

/// Random store mutation shared by P9/P10: puts (inserts & replaces,
/// including parent moves and tag changes), and erases.
void random_space_op(Rng& rng, TupleSpace& space) {
  const TupleUid uid{NodeId{1 + rng.below(8)}, 1 + rng.below(6)};
  const auto roll = rng.below(4);
  if (roll == 3 && space.find(uid) != nullptr) {
    space.erase(uid);
    return;
  }
  std::unique_ptr<Tuple> t;
  if (rng.chance(0.8)) {
    auto g = std::make_unique<GradientTuple>(
        "f" + std::to_string(rng.below(3)));
    g->content()
        .set("source", uid.origin())
        .set("hopcount", static_cast<std::int64_t>(rng.below(10)));
    t = std::move(g);
  } else {
    t = std::make_unique<MessageTuple>(NodeId{1 + rng.below(8)}, "m");
  }
  t->set_uid(uid);
  space.put(std::move(t), NodeId{rng.below(4)}, rng.chance(0.3),
            SimTime::zero());
}

/// Patterns covering both walks — full scan and type bucket — with and
/// without field predicates on top.
std::vector<Pattern> probe_patterns(Rng& rng) {
  std::vector<Pattern> out;
  out.emplace_back();  // match-all full scan
  out.push_back(Pattern::of_type(GradientTuple::kTag));
  out.push_back(Pattern::of_type(MessageTuple::kTag));
  {
    Pattern p = Pattern::of_type(GradientTuple::kTag);
    p.eq("name", "f" + std::to_string(rng.below(3)));
    out.push_back(std::move(p));
  }
  {
    Pattern p;
    p.where("hopcount",
            Pred::between(static_cast<std::int64_t>(rng.below(4)),
                          static_cast<std::int64_t>(4 + rng.below(6))));
    out.push_back(std::move(p));
  }
  {
    Pattern p = Pattern::of_type(GradientTuple::kTag);
    p.where("hopcount", Pred::le(static_cast<std::int64_t>(rng.below(8))));
    out.push_back(std::move(p));
  }
  {
    Pattern p = Pattern::of_type(GradientTuple::kTag);
    p.where("name", Pred::any_of({wire::Value{"f0"}, wire::Value{"f1"}}));
    out.push_back(std::move(p));
  }
  return out;
}

/// The oracle: a naive full scan applying the direct matcher, bypassing
/// the type buckets entirely.
std::vector<TupleUid> naive_matches(const TupleSpace& space,
                                    const Pattern& pattern) {
  std::vector<TupleUid> uids;
  space.for_each([&](const TupleSpace::Entry& e) {
    if (pattern.matches(*e.tuple)) uids.push_back(e.tuple->uid());
  });
  return uids;
}

class ReadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadProperty, ReadsEqualNaiveFullScan) {
  tuples::register_standard_tuples();
  Rng rng(GetParam());
  TupleSpace space;
  for (int op = 0; op < 2000; ++op) {
    random_space_op(rng, space);
    if (op % 40 != 0) continue;
    for (const Pattern& pattern : probe_patterns(rng)) {
      std::vector<TupleUid> planned;
      for (const TupleHandle& t : space.read(pattern)) {
        planned.push_back(t->uid());
      }
      EXPECT_EQ(planned, naive_matches(space, pattern))
          << "op " << op << " pattern " << pattern.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadProperty,
                         ::testing::Values(401, 402, 403));

// --- P10: continuous queries ≡ re-running the query ---------------------------

class ContinuousQueryProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContinuousQueryProperty, IncrementalSetsEqualFullRequery) {
  tuples::register_standard_tuples();
  Rng rng(GetParam());
  TupleSpace space;
  EventBus bus;
  // Wire the store to the bus exactly as Middleware does.
  space.set_listener([&](TupleSpace::ChangeKind kind,
                         const TupleSpace::Entry& entry) {
    bus.notify_space(kind, entry, SimTime::zero());
  });

  // Standing queries over both walks; each mirrors its deltas
  // into a shadow set the oracle is compared against.
  Rng pattern_rng(GetParam() * 7 + 1);
  std::vector<Pattern> patterns = probe_patterns(pattern_rng);
  std::vector<std::set<TupleUid>> shadows(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    auto* shadow = &shadows[i];
    bus.subscribe_query(patterns[i], [shadow](const QueryDelta& d) {
      switch (d.kind) {
        case QueryDelta::Kind::kAdded:
          EXPECT_TRUE(shadow->insert(d.tuple->uid()).second);
          break;
        case QueryDelta::Kind::kUpdated:
          EXPECT_TRUE(shadow->contains(d.tuple->uid()));
          break;
        case QueryDelta::Kind::kRemoved:
          EXPECT_EQ(shadow->erase(d.tuple->uid()), 1u);
          break;
      }
    });
  }

  for (int op = 0; op < 2000; ++op) {
    random_space_op(rng, space);
    if (op % 40 != 0) continue;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      const auto requeried = naive_matches(space, patterns[i]);
      const std::set<TupleUid> expected(requeried.begin(), requeried.end());
      EXPECT_EQ(shadows[i], expected)
          << "op " << op << " pattern " << patterns[i].str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContinuousQueryProperty,
                         ::testing::Values(501, 502, 503));

// --- P11: in-network aggregates ≡ gather-at-source oracle ---------------------
// Every node runs an Aggregator; one sink sums integer "reading" tuples
// through a contribution pattern.  A seeded script mutates the world —
// put / replace / retract readings, move nodes — and after each batch
// settles, the sink's incrementally folded answer must equal the exact
// oracle: summing the driver's own ledger over the nodes currently
// reachable from the sink.  Integer values keep double sums exact, so
// fold order never matters.

class AggregationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregationProperty, FoldedSumEqualsGatherOracle) {
  const std::uint64_t seed = GetParam();
  emu::ShardedWorld world(options(seed));
  const auto ids = world.spawn_grid(4, 4, 60.0);
  world.run_for(SimTime::from_seconds(1));
  std::vector<std::unique_ptr<Aggregator>> aggs;
  for (const NodeId id : ids) {
    aggs.push_back(std::make_unique<Aggregator>(world.mw(id)));
  }
  const NodeId sink = ids[seed % ids.size()];
  const std::size_t sink_i =
      static_cast<std::size_t>(seed % ids.size());

  Pattern readings = Pattern::of_type(GradientTuple::kTag);
  readings.eq("name", "p11").exists("val");
  auto spec = std::make_unique<AggregationTuple>("p11", AggOp::kSum);
  spec->over("val").matching(readings);
  aggs[sink_i]->ask(std::move(spec));
  world.run_for(SimTime::from_seconds(2));

  // The driver's ledger: each node's current reading, if any.
  std::map<NodeId, std::int64_t> ledger;
  const auto put_reading = [&](std::size_t i, std::int64_t val) {
    Pattern mine = Pattern::of_type(GradientTuple::kTag);
    mine.eq("name", "p11");
    world.mw(ids[i]).take(mine);
    auto r = std::make_unique<GradientTuple>("p11", 0);
    r->content().set("val", val);
    world.mw(ids[i]).inject(std::move(r));
    ledger[ids[i]] = val;
  };

  Rng script(seed * 1000 + 23);
  // 10 rounds x 25 ops x 8 seeds = 2000 randomized mutations.
  for (int round = 0; round < 10; ++round) {
    for (int op = 0; op < 25; ++op) {
      const std::size_t i = script.below(ids.size());
      switch (script.below(4)) {
        case 0:  // put / replace
        case 1:
          put_reading(i, static_cast<std::int64_t>(script.below(100)));
          break;
        case 2: {  // retract
          Pattern mine = Pattern::of_type(GradientTuple::kTag);
          mine.eq("name", "p11");
          world.mw(ids[i]).take(mine);
          ledger.erase(ids[i]);
          break;
        }
        case 3:  // move (never the sink; the tree root stays put)
          if (ids[i] != sink) {
            world.net().move_node(
                ids[i], {script.uniform(0, 220), script.uniform(0, 220)});
          }
          break;
      }
    }
    world.run_for(SimTime::from_seconds(6));

    const auto reach = world.net().topology().hop_distances(sink);
    double oracle = 0.0;
    for (const auto& [node, val] : ledger) {
      if (reach.contains(node)) oracle += static_cast<double>(val);
    }
    const auto folded = aggs[sink_i]->result("p11");
    ASSERT_TRUE(folded.has_value()) << "round " << round;
    ASSERT_EQ(*folded, oracle) << "round " << round << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationProperty,
                         ::testing::Values(601, 602, 603, 604, 605, 606,
                                           607, 608));

}  // namespace
}  // namespace tota
