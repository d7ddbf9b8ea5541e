// Unit tests for the TOTA engine: injection pipeline, dedup, wire frames,
// retraction, decode robustness.  Uses a FakePlatform so each test drives
// one engine in isolation and inspects exactly what it transmits.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "fake_platform.h"
#include "obs_expect.h"
#include "tota/engine.h"
#include "wire/atom.h"
#include "tuples/all.h"

namespace {

// Heap allocations made while g_count_allocs is set, so a test can pin
// the receive path's allocation count.
bool g_count_allocs = false;
std::size_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with the
// operator new at a call site (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tota {
namespace {

using testing::FakePlatform;
using tuples::GradientTuple;
using tuples::ModifierTuple;
using tota::testing::recorded;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { tuples::register_standard_tuples(); }

  /// Expects engine_'s maint.<name> counter (its hub is private to the
  /// test) to have recorded `n`.
  void expect_maint(const std::string& name, std::int64_t n) const {
    EXPECT_EQ(hub_.metrics.get("maint." + name), recorded(n))
        << "maint." << name;
  }

  FakePlatform platform_;
  TupleSpace space_;
  EventBus bus_;
  obs::Hub hub_;
  Engine engine_{NodeId{1}, platform_, space_, bus_, {}, &hub_};
};

TEST_F(EngineTest, InjectAssignsUidAndStores) {
  const TupleUid uid =
      engine_.inject(std::make_unique<GradientTuple>("field"));
  EXPECT_EQ(uid.origin(), NodeId{1});
  const auto* entry = space_.find(uid);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->tuple->hop(), 0);
  EXPECT_EQ(entry->tuple->content().at("hopcount").as_int(), 0);
  EXPECT_EQ(entry->tuple->content().at("source").as_node(), NodeId{1});
  EXPECT_FALSE(entry->parent.valid());
}

TEST_F(EngineTest, InjectBroadcastsTupleFrame) {
  engine_.inject(std::make_unique<GradientTuple>("field"));
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
  // Frame parses back into the same tuple at hop 0.
  wire::Reader r(platform_.broadcasts[0]);
  EXPECT_EQ(r.u8(), 1);  // kTuple
  const auto decoded = Tuple::decode(r);
  EXPECT_EQ(decoded->type_tag(), GradientTuple::kTag);
  EXPECT_EQ(decoded->hop(), 0);
}

TEST_F(EngineTest, SequencesIncrease) {
  const auto a = engine_.inject(std::make_unique<GradientTuple>("f1"));
  const auto b = engine_.inject(std::make_unique<GradientTuple>("f2"));
  EXPECT_LT(a.sequence(), b.sequence());
}

// Round-trips a tuple through the wire the way a neighbour would receive
// it: encoded at the sender's hop, then hop+1 applied on receipt.
wire::Bytes tuple_frame(const Tuple& tuple) {
  wire::Writer w;
  w.u8(1);
  tuple.encode(w);
  return w.take();
}

TEST_F(EngineTest, ReceivedTupleStoredWithIncrementedHop) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  remote.content().set("source", NodeId{9}).set("hopcount", 2);

  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  const auto* entry = space_.find(remote.uid());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->tuple->hop(), 3);
  EXPECT_EQ(entry->tuple->content().at("hopcount").as_int(), 3);
  EXPECT_EQ(entry->parent, NodeId{5});
  // And re-propagated.
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, WorseDuplicateDropped) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  remote.set_hop(6);  // longer path: must not supersede hop 3
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  EXPECT_EQ(space_.find(remote.uid())->tuple->hop(), 3);
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(EngineTest, BetterCopySupersedesAndRepropagates) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(5);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  remote.set_hop(1);
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  const auto* entry = space_.find(remote.uid());
  EXPECT_EQ(entry->tuple->hop(), 2);
  EXPECT_EQ(entry->parent, NodeId{6});
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, IdenticalParentReannounceIsQuiet) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  // The parent re-broadcasts the same value (e.g. a new neighbour
  // appeared near it): no update, no re-propagation storm.
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(EngineTest, StretchedSupportIsRetractedThenReinstalled) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  // Our only supporter now announces a *worse* value (the topology
  // stretched upstream).  Justification fails (RETRACT announced) and the
  // worse copy is held down — reinstalling it immediately is what fuels
  // count-to-infinity between orphaned replicas.
  remote.set_hop(7);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  EXPECT_EQ(space_.find(remote.uid()), nullptr);
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
  {
    wire::Reader r(platform_.broadcasts[0]);
    EXPECT_EQ(r.u8(), 2);  // the retraction announcement
  }
  expect_maint("retract_cascaded", 1);
  platform_.broadcasts.clear();

  // Hold-down expires: the engine probes for surviving holders…
  platform_.run_scheduled();
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
  {
    wire::Reader r(platform_.broadcasts[0]);
    EXPECT_EQ(r.u8(), 3);  // PROBE
  }
  expect_maint("probe_tx", 1);
  platform_.broadcasts.clear();

  // …and the supporter's re-announcement now installs the stretched
  // value fresh.
  remote.set_hop(7);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  ASSERT_NE(space_.find(remote.uid()), nullptr);
  EXPECT_EQ(space_.find(remote.uid())->tuple->hop(), 8);
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, NeighborUpTriggersRepropagation) {
  engine_.inject(std::make_unique<GradientTuple>("field"));
  platform_.broadcasts.clear();

  engine_.on_neighbor_up(NodeId{4});
  platform_.run_scheduled();
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
  expect_maint("link_up_reprop", 1);
  EXPECT_EQ(engine_.neighbors(), std::vector<NodeId>{NodeId{4}});
}

TEST_F(EngineTest, SimultaneousLinkUpsAreDebounced) {
  engine_.inject(std::make_unique<GradientTuple>("field"));
  platform_.broadcasts.clear();

  engine_.on_neighbor_up(NodeId{4});
  engine_.on_neighbor_up(NodeId{5});
  engine_.on_neighbor_up(NodeId{6});
  platform_.run_scheduled();
  // One re-propagation round, not three.
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, NeighborDownRetractsDependents) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  engine_.on_neighbor_down(NodeId{5});
  EXPECT_EQ(space_.find(remote.uid()), nullptr);
  expect_maint("retract_started", 1);
  // A RETRACT frame went out.
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
  wire::Reader r(platform_.broadcasts[0]);
  EXPECT_EQ(r.u8(), 2);  // kRetract
  EXPECT_EQ(NodeId{r.uvarint()}, NodeId{9});
  EXPECT_EQ(r.uvarint(), 1u);
}

TEST_F(EngineTest, LocallyInjectedSurvivesNeighborLoss) {
  const auto uid = engine_.inject(std::make_unique<GradientTuple>("field"));
  engine_.on_neighbor_up(NodeId{5});
  engine_.on_neighbor_down(NodeId{5});
  EXPECT_NE(space_.find(uid), nullptr);
}

TEST_F(EngineTest, RetractFromParentCascades) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  wire::Writer w;
  w.u8(2);
  w.uvarint(9);
  w.uvarint(1);
  w.svarint(2);
  engine_.on_datagram(NodeId{5}, w.take());
  EXPECT_EQ(space_.find(remote.uid()), nullptr);
  expect_maint("retract_cascaded", 1);
}

TEST_F(EngineTest, RetractFromNonParentTriggersHeal) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  wire::Writer w;
  w.u8(2);
  w.uvarint(9);
  w.uvarint(1);
  w.svarint(4);
  engine_.on_datagram(NodeId{6}, w.take());  // not our parent
  EXPECT_NE(space_.find(remote.uid()), nullptr);
  expect_maint("heal_reprop", 1);
  EXPECT_EQ(platform_.broadcasts.size(), 1u);  // replica re-announced
}

TEST_F(EngineTest, HoldDownAdmitsStrictlyBetterValues) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(4);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  engine_.on_neighbor_down(NodeId{5});  // retract: hold-down at hop 5
  platform_.broadcasts.clear();

  // A copy over a *shorter* path is never a zombie ratchet: it installs
  // immediately despite the hold-down.
  remote.set_hop(2);
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  ASSERT_NE(space_.find(remote.uid()), nullptr);
  EXPECT_EQ(space_.find(remote.uid())->tuple->hop(), 3);
}

TEST_F(EngineTest, HoldDownBlocksEqualOrWorseUntilExpiry) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(4);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  engine_.on_neighbor_down(NodeId{5});  // hold-down armed at hop 5

  remote.set_hop(4);  // re-arrives at the same value
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  EXPECT_EQ(space_.find(remote.uid()), nullptr);  // blocked

  platform_.run_scheduled();  // hold-down expires; probe goes out
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  EXPECT_NE(space_.find(remote.uid()), nullptr);  // admitted now
}

TEST_F(EngineTest, ProbeAnsweredOnlyByJustifiedHolders) {
  // A replica whose support is gone must not answer probes (it is about
  // to drain itself); a justified one answers.
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(2);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  platform_.broadcasts.clear();

  wire::Writer probe;
  probe.u8(3);
  probe.uvarint(9);
  probe.uvarint(1);
  engine_.on_datagram(NodeId{6}, probe.bytes());
  expect_maint("probe_answer", 1);
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, ProbeForUnknownTupleIgnored) {
  wire::Writer probe;
  probe.u8(3);
  probe.uvarint(9);
  probe.uvarint(1);
  engine_.on_datagram(NodeId{6}, probe.take());
  EXPECT_TRUE(platform_.broadcasts.empty());
  expect_maint("probe_answer", 0);
}

TEST_F(EngineTest, SourceAnswersProbesForItsOwnTuple) {
  engine_.inject(std::make_unique<GradientTuple>("field"));
  const TupleUid uid = space_.propagated_uids()[0];
  platform_.broadcasts.clear();

  wire::Writer probe;
  probe.u8(3);
  probe.uvarint(uid.origin().value());
  probe.uvarint(uid.sequence());
  engine_.on_datagram(NodeId{6}, probe.take());
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(EngineTest, RetractForUnknownTupleIgnored) {
  wire::Writer w;
  w.u8(2);
  w.uvarint(9);
  w.uvarint(1);
  w.svarint(4);
  engine_.on_datagram(NodeId{6}, w.take());
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(EngineTest, GarbageFramesCountedNotFatal) {
  engine_.on_datagram(NodeId{5}, wire::Bytes{});
  engine_.on_datagram(NodeId{5}, wire::Bytes{99, 1, 2});
  engine_.on_datagram(NodeId{5}, wire::Bytes{1, 0xFF, 0xFF});
  EXPECT_EQ(engine_.decode_failures(), 3u);
  EXPECT_TRUE(space_.empty());
}

TEST_F(EngineTest, UnknownTupleTypeCounted) {
  wire::Writer w;
  w.u8(1);
  w.string("never.registered");
  engine_.on_datagram(NodeId{5}, w.take());
  EXPECT_EQ(engine_.decode_failures(), 1u);
}

TEST_F(EngineTest, TrailingBytesRejected) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  auto frame = tuple_frame(remote);
  frame.push_back(0xAB);
  engine_.on_datagram(NodeId{5}, frame);
  EXPECT_EQ(engine_.decode_failures(), 1u);
}

TEST_F(EngineTest, ArrivalEventsPublished) {
  int arrivals = 0;
  bus_.subscribe(
      Pattern{}, [&](const Event&) { ++arrivals; },
      static_cast<int>(EventKind::kTupleArrived));
  engine_.inject(std::make_unique<GradientTuple>("field"));
  EXPECT_EQ(arrivals, 1);
}

TEST_F(EngineTest, RemovalEventOnRetraction) {
  int removals = 0;
  bus_.subscribe(
      Pattern{}, [&](const Event&) { ++removals; },
      static_cast<int>(EventKind::kTupleRemoved));
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  engine_.on_neighbor_down(NodeId{5});
  EXPECT_EQ(removals, 1);
}

TEST_F(EngineTest, ModifierTupleDeletesMatchesViaOps) {
  engine_.inject(std::make_unique<GradientTuple>("doomed"));
  engine_.inject(std::make_unique<GradientTuple>("kept"));

  ModifierTuple eraser(GradientTuple::kTag, {{"name", wire::Value{"doomed"}}});
  eraser.set_uid(TupleUid{NodeId{9}, 1});
  wire::Writer w;
  w.u8(1);
  eraser.encode(w);
  engine_.on_datagram(NodeId{5}, w.take());

  Pattern doomed;
  doomed.eq("name", "doomed");
  EXPECT_TRUE(space_.read(doomed).empty());
  Pattern kept;
  kept.eq("name", "kept");
  EXPECT_EQ(space_.read(kept).size(), 1u);
}

TEST_F(EngineTest, PassthroughMemoryIsBounded) {
  Engine engine(NodeId{2}, platform_, space_, bus_);

  auto frame_for = [](std::uint64_t seq) {
    ModifierTuple m("no.such.type", {});
    m.set_uid(TupleUid{NodeId{9}, seq});
    wire::Writer w;
    w.u8(1);
    m.encode(w);
    return w.take();
  };

  // Flood two more distinct pass-through tuples than the filter holds…
  const std::uint64_t flood = kPassthroughMemory + 2;
  for (std::uint64_t seq = 1; seq <= flood; ++seq) {
    engine.on_datagram(NodeId{5}, frame_for(seq));
  }
  const auto relayed = platform_.broadcasts.size();
  EXPECT_EQ(relayed, flood);

  // …the newest is still remembered (its duplicate is absorbed)…
  engine.on_datagram(NodeId{6}, frame_for(flood));
  EXPECT_EQ(platform_.broadcasts.size(), relayed);

  // …while the oldest was evicted, so its late duplicate is re-relayed
  // once — the documented bounded-memory trade-off.
  engine.on_datagram(NodeId{6}, frame_for(1));
  EXPECT_EQ(platform_.broadcasts.size(), relayed + 1);
}

TEST_F(EngineTest, TruncatedControlFramesCountedAndHarmless) {
  // A stored tuple whose neighbour state must survive garbage frames.
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  ASSERT_NE(space_.find(remote.uid()), nullptr);
  platform_.broadcasts.clear();

  // Every strict prefix of RETRACT and PROBE frames (truncated varints
  // included) must count a decode failure and change nothing.
  for (const wire::Bytes& whole :
       {wire::Frame::retract(remote.uid(), 7), wire::Frame::probe(remote.uid())}) {
    for (std::size_t len = 1; len < whole.size(); ++len) {
      const auto before = engine_.decode_failures();
      engine_.on_datagram(NodeId{5},
                          std::span(whole.data(), len));
      EXPECT_EQ(engine_.decode_failures(), before + 1) << "len=" << len;
    }
  }
  // A TUPLE frame whose content record claims 4096 fields in a 6-byte
  // body fails whole and at every cut, storing nothing.
  const TupleUid hostile_uid{NodeId{9}, 2};
  const wire::Bytes hostile = wire::Frame::tuple([&](wire::Writer& w) {
    w.string(remote.type_tag());
    w.uvarint(hostile_uid.origin().value());
    w.uvarint(hostile_uid.sequence());
    w.svarint(0);
    w.uvarint(4096);
    w.string("a");
    wire::Value(7).encode(w);
  });
  for (std::size_t len = 1; len <= hostile.size(); ++len) {
    const auto before = engine_.decode_failures();
    engine_.on_datagram(NodeId{5}, std::span(hostile.data(), len));
    EXPECT_EQ(engine_.decode_failures(), before + 1) << "len=" << len;
  }
  EXPECT_EQ(space_.find(hostile_uid), nullptr);
  // The replica is still stored, still justified by neighbour 5 (a real
  // RETRACT would have cascaded), and nothing was transmitted.
  EXPECT_NE(space_.find(remote.uid()), nullptr);
  expect_maint("retract_cascaded", 0);
  EXPECT_TRUE(platform_.broadcasts.empty());
}

// --- header-first receive ----------------------------------------------------
//
// The contract of Engine::on_datagram: every TUPLE header is validated,
// the body whenever the copy can enter, and a damaged body on a copy
// that cannot enter is never read.

class HeaderFirstTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tuples::register_standard_tuples();
    // Neighbour 5 holds the field at hop 2, so ours sits at hop 3.
    remote_.set_uid(TupleUid{NodeId{9}, 1});
    remote_.set_hop(2);
    engine_.on_datagram(NodeId{5}, tuple_frame(remote_));
    ASSERT_NE(space_.find(remote_.uid()), nullptr);
    platform_.broadcasts.clear();
  }

  std::int64_t count(const char* name) const {
    return hub_.metrics.get(name);
  }

  /// `remote_`'s TUPLE frame at `hop`, cut right after the tuple header.
  wire::Bytes header_only(int hop) const {
    wire::Bytes frame = tuple_frame_at(hop);
    wire::Writer header;
    TupleHeader{remote_.type_tag(), remote_.uid(), hop}.write(header);
    frame.resize(1 + header.size());
    return frame;
  }

  wire::Bytes tuple_frame_at(int hop) const {
    GradientTuple copy = remote_;
    copy.set_hop(hop);
    return tuple_frame(copy);
  }

  int stored_hop() const {
    const auto* entry = space_.find(remote_.uid());
    return entry == nullptr ? -1 : entry->tuple->hop();
  }

  obs::Hub hub_;
  FakePlatform platform_;
  TupleSpace space_;
  EventBus bus_;
  Engine engine_{NodeId{1}, platform_, space_, bus_, {}, &hub_};
  GradientTuple remote_{"field"};
};

TEST_F(HeaderFirstTest, DuplicateWithCutBodyDroppedOnItsHeader) {
  // Hop 4 arrives as hop 5 > 3: a duplicate.  Its body is gone, which a
  // full decode would reject — but the body is never read.
  const wire::Bytes frame = header_only(4);
  {
    wire::Reader r{std::span<const std::uint8_t>(frame).subspan(1)};
    EXPECT_THROW(Tuple::decode(r), wire::DecodeError);
  }
  const auto dups = count("engine.drop.duplicate");
  engine_.on_datagram(NodeId{6}, frame);
  EXPECT_EQ(count("engine.drop.duplicate"), recorded(dups + 1));
  EXPECT_EQ(engine_.decode_failures(), 0u);
  EXPECT_EQ(stored_hop(), 3);
  EXPECT_EQ(space_.size(), 1u);
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(HeaderFirstTest, SupersedingCopyWithMalformedBodyFailsAndKeepsReplica) {
  // Hop 0 arrives as hop 1 < 3: it would replace the replica, so its
  // body is read — and the cut body fails whole.
  const wire::Bytes whole = tuple_frame_at(0);
  const std::span<const std::uint8_t> cut(whole.data(), whole.size() - 1);
  const auto dups = count("engine.drop.duplicate");
  engine_.on_datagram(NodeId{6}, cut);
  EXPECT_EQ(engine_.decode_failures(), 1u);
  EXPECT_EQ(count("engine.decode_fail"), recorded(1));
  EXPECT_EQ(count("engine.drop.duplicate"), dups);
  EXPECT_EQ(stored_hop(), 3);
  EXPECT_EQ(space_.find(remote_.uid())->parent, NodeId{5});
  EXPECT_TRUE(platform_.broadcasts.empty());

  // The intact copy does replace it.
  engine_.on_datagram(NodeId{6}, whole);
  EXPECT_EQ(stored_hop(), 1);
  EXPECT_EQ(platform_.broadcasts.size(), 1u);
}

TEST_F(HeaderFirstTest, StretchedDuplicateFromOnlyJustifierRetracts) {
  // Neighbour 6 holds the tuple at hop 4: no support for our hop 3, so 5
  // is the only justifier.
  engine_.on_datagram(NodeId{6}, tuple_frame_at(4));
  ASSERT_EQ(stored_hop(), 3);
  platform_.broadcasts.clear();

  // Neighbour 5 now holds hop 7; as hop 8 the copy cannot replace hop 3,
  // yet what it says about 5 voids our justification.
  engine_.on_datagram(NodeId{5}, tuple_frame_at(7));
  EXPECT_EQ(space_.find(remote_.uid()), nullptr);
  EXPECT_EQ(count("maint.retract_cascaded"), recorded(1));
  ASSERT_EQ(platform_.broadcasts.size(), 1u);
  wire::Reader r(platform_.broadcasts[0]);
  EXPECT_EQ(r.u8(), 2);  // RETRACT
  // With the replica gone the copy could enter, so its body was read;
  // the hold-down then refuses the stretched value.
  EXPECT_EQ(count("engine.drop.holddown"), recorded(1));
  EXPECT_EQ(engine_.decode_failures(), 0u);
}

TEST_F(HeaderFirstTest, UidStoredUnderAnotherTagIsADecodeFailure) {
  tuples::FloodTuple impostor("field", wire::Value{1});
  impostor.set_uid(remote_.uid());
  impostor.set_hop(0);
  const auto dups = count("engine.drop.duplicate");
  engine_.on_datagram(NodeId{6}, tuple_frame(impostor));
  EXPECT_EQ(engine_.decode_failures(), 1u);
  EXPECT_EQ(count("engine.drop.duplicate"), dups);
  const auto* entry = space_.find(remote_.uid());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->type_tag, GradientTuple::kTag);
  EXPECT_EQ(entry->tuple->hop(), 3);
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(HeaderFirstTest, DuplicateFromNotedNeighbourAllocatesNothing) {
  const wire::Bytes from_parent = tuple_frame_at(2);
  const wire::Bytes from_peer = tuple_frame_at(3);
  engine_.on_datagram(NodeId{6}, from_peer);  // 6 is noted from here on
  const auto dups = count("engine.drop.duplicate");

  g_allocs = 0;
  g_count_allocs = true;
  engine_.on_datagram(NodeId{5}, from_parent);
  engine_.on_datagram(NodeId{6}, from_peer);
  g_count_allocs = false;

  EXPECT_EQ(g_allocs, 0u);
  EXPECT_EQ(count("engine.drop.duplicate"), recorded(dups + 2));
  EXPECT_EQ(stored_hop(), 3);
  EXPECT_TRUE(platform_.broadcasts.empty());
}

TEST_F(EngineTest, DecodeFailureMetricRecorded) {
  obs::Hub hub;
  Engine engine(NodeId{3}, platform_, space_, bus_, {}, &hub);
  engine.on_datagram(NodeId{5}, wire::Bytes{99});
  EXPECT_EQ(hub.metrics.get("engine.decode_fail"), recorded(1));
}

// --- shared replicas ----------------------------------------------------------

TEST_F(EngineTest, ReadHandleOutlivesRetractionAndHoldDown) {
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(4);
  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  const TupleHandle held =
      space_.read_one(Pattern::of_type(GradientTuple::kTag));
  ASSERT_NE(held, nullptr);

  engine_.on_neighbor_down(NodeId{5});  // retracts; hold-down at hop 5
  ASSERT_EQ(space_.find(remote.uid()), nullptr);
  EXPECT_EQ(held.use_count(), 1);  // only the reader keeps it alive
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  ASSERT_EQ(space_.find(remote.uid()), nullptr);  // held down

  platform_.run_scheduled();  // hold-down expires
  engine_.on_datagram(NodeId{6}, tuple_frame(remote));
  remote.set_hop(0);  // then a better copy supersedes the reinstall
  engine_.on_datagram(NodeId{7}, tuple_frame(remote));
  ASSERT_NE(space_.find(remote.uid()), nullptr);
  EXPECT_EQ(space_.find(remote.uid())->tuple->hop(), 1);

  EXPECT_NE(space_.find(remote.uid())->tuple, held);
  EXPECT_EQ(held->hop(), 5);
  EXPECT_EQ(held->content().at("hopcount").as_int(), 5);
  EXPECT_EQ(held->content().at("name").as_string(), "field");
}

TEST_F(EngineTest, ReentrantReplaceDuringPublishKeepsTheBroadcastBytes) {
  // A kTupleArrived reaction that makes the engine replace the very
  // replica being processed — here by receiving a better copy of the
  // same uid — must not change what step 7 then sends: the outer copy.
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.set_hop(1);
  const wire::Bytes better = tuple_frame(remote);
  remote.set_hop(5);
  bool replaced = false;
  bus_.subscribe(
      Pattern::of_type(GradientTuple::kTag),
      [&](const Event&) {
        if (replaced) return;
        replaced = true;
        engine_.on_datagram(NodeId{6}, better);
      },
      static_cast<int>(EventKind::kTupleArrived));

  engine_.on_datagram(NodeId{5}, tuple_frame(remote));
  ASSERT_TRUE(replaced);
  EXPECT_EQ(space_.find(remote.uid())->tuple->hop(), 2);

  // The outer copy as it left step 5: hop 6, hopcount stamped to 6.
  GradientTuple outer = remote;
  outer.set_hop(6);
  outer.content().set("hopcount", 6);
  remote.set_hop(2);
  remote.content().set("hopcount", 2);
  ASSERT_EQ(platform_.broadcasts.size(), 2u);
  EXPECT_EQ(platform_.broadcasts[0], tuple_frame(remote));  // inner
  EXPECT_EQ(platform_.broadcasts[1], tuple_frame(outer));   // outer
}

// --- field-name table cap ----------------------------------------------------

/// Feeds an engine TUPLE frames whose bodies each name kPerFrame fields
/// never seen before, up to the name table's cap and past it.  Returns 0
/// when every expectation held, else the number of the one that failed.
int flood_name_table() {
  tuples::register_standard_tuples();
  FakePlatform platform;
  TupleSpace space;
  EventBus bus;
  Engine engine{NodeId{1}, platform, space, bus};
  constexpr std::size_t kPerFrame = 4096;  // the record decoder's limit
  std::uint64_t seq = 0;
  std::size_t next_name = 0;
  const auto hostile_frame = [&] {
    const TupleUid uid{NodeId{9}, ++seq};
    return wire::Frame::tuple([&](wire::Writer& w) {
      TupleHeader{GradientTuple::kTag, uid, 0}.write(w);
      w.uvarint(kPerFrame);
      for (std::size_t i = 0; i < kPerFrame; ++i) {
        w.string("hostile." + std::to_string(next_name++));
        wire::Value(1).encode(w);
      }
      w.svarint(GradientTuple::kUnbounded);
    });
  };

  // While the new names fit, such frames are ordinary tuples.
  while (wire::Atom::count() + kPerFrame <= wire::Atom::kMaxAtoms) {
    engine.on_datagram(NodeId{5}, hostile_frame());
    if (engine.decode_failures() != 0) return 1;
  }
  const std::size_t stored = space.size();
  if (stored == 0) return 2;

  // Past the cap each one is a decode failure, and the table stays full.
  for (int i = 0; i < 3; ++i) engine.on_datagram(NodeId{5}, hostile_frame());
  if (engine.decode_failures() != 3) return 3;
  if (wire::Atom::count() != wire::Atom::kMaxAtoms) return 4;
  if (space.size() != stored) return 5;

  // Copies that use known names still decode.
  GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{8}, 1});
  engine.on_datagram(NodeId{5}, tuple_frame(remote));
  if (engine.decode_failures() != 3) return 6;
  if (space.find(remote.uid()) == nullptr) return 7;
  return 0;
}

TEST(FieldNameCapDeathTest, FramesPastTheCapAreDecodeFailures) {
  // In a child process: filling the process-wide table would starve the
  // other tests of this binary.
  EXPECT_EXIT(std::exit(flood_name_table()), ::testing::ExitedWithCode(0),
              "");
}

// --- BoundedUidFifo --------------------------------------------------------

TEST(BoundedUidFifoTest, EvictsOldestHalfBeyondCapacity) {
  BoundedUidFifo<std::monostate> fifo(4);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_TRUE(fifo.insert(TupleUid{NodeId{1}, seq}));
  }
  // 5 entries > 4 ⇒ evict 5/2 = 2 oldest.
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 1}));
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 2}));
  EXPECT_TRUE(fifo.contains(TupleUid{NodeId{1}, 3}));
  EXPECT_TRUE(fifo.contains(TupleUid{NodeId{1}, 5}));
}

TEST(BoundedUidFifoTest, StaleSlotsDoNotSpendEvictionQuota) {
  // Regression: erased uids leave stale slots in the insertion-order
  // deque.  The old eviction loop counted those slots against the
  // quota, evicting live entries well before capacity.
  BoundedUidFifo<std::monostate> fifo(4);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    fifo.insert(TupleUid{NodeId{1}, seq});
  }
  fifo.erase(TupleUid{NodeId{1}, 1});
  fifo.erase(TupleUid{NodeId{1}, 2});
  fifo.insert(TupleUid{NodeId{1}, 4});
  fifo.insert(TupleUid{NodeId{1}, 5});
  ASSERT_EQ(fifo.size(), 3u);

  // Overflow: quota is 5/2 = 2 *live* evictions — the two stale front
  // slots must be skipped, leaving {5, 6, 7}.
  fifo.insert(TupleUid{NodeId{1}, 6});
  fifo.insert(TupleUid{NodeId{1}, 7});
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 3}));
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 4}));
  EXPECT_TRUE(fifo.contains(TupleUid{NodeId{1}, 5}));
  EXPECT_TRUE(fifo.contains(TupleUid{NodeId{1}, 6}));
  EXPECT_TRUE(fifo.contains(TupleUid{NodeId{1}, 7}));
}

TEST(BoundedUidFifoTest, ReinsertedUidNotEvictedByItsStaleSlot) {
  // An erased-then-reinserted uid reuses the key; its *old* deque slot
  // must not evict the new entry.
  BoundedUidFifo<int> fifo(4);
  const TupleUid victim{NodeId{1}, 1};
  fifo.insert(victim, 10);
  fifo.erase(victim);
  for (std::uint64_t seq = 2; seq <= 4; ++seq) {
    fifo.insert(TupleUid{NodeId{1}, seq}, 0);
  }
  fifo.insert(victim, 20);  // re-insert: newest entry, stale slot at front
  ASSERT_EQ(fifo.size(), 4u);

  fifo.insert(TupleUid{NodeId{1}, 5}, 0);  // overflow, quota 2
  // Evicted: 2 and 3 (the oldest live); the re-inserted victim survives
  // with its new value.
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 2}));
  EXPECT_FALSE(fifo.contains(TupleUid{NodeId{1}, 3}));
  ASSERT_TRUE(fifo.contains(victim));
  EXPECT_EQ(*fifo.find(victim), 20);
}

TEST(BoundedUidFifoTest, InsertOnExistingUidKeepsStoredValue) {
  BoundedUidFifo<int> fifo(8);
  EXPECT_TRUE(fifo.insert(TupleUid{NodeId{1}, 1}, 10));
  EXPECT_FALSE(fifo.insert(TupleUid{NodeId{1}, 1}, 20));
  EXPECT_EQ(*fifo.find(TupleUid{NodeId{1}, 1}), 10);
}

TEST_F(EngineTest, PassThroughProcessedOncePerNode) {
  // A modifier tuple is pass-through; a second copy via another neighbour
  // must not re-run effects or re-propagate.
  ModifierTuple eraser(GradientTuple::kTag, {{"name", wire::Value{"x"}}});
  eraser.set_uid(TupleUid{NodeId{9}, 1});
  wire::Writer w;
  w.u8(1);
  eraser.encode(w);
  const auto frame = w.take();

  engine_.on_datagram(NodeId{5}, frame);
  const auto first_count = platform_.broadcasts.size();
  engine_.on_datagram(NodeId{6}, frame);
  EXPECT_EQ(platform_.broadcasts.size(), first_count);
}

TEST(EngineLifetimeTest, DestructorCancelsPendingTimers) {
  // A destroyed engine must leave no timers behind on a platform that
  // outlives it (a live event loop does; only the simulator's despawn
  // cancels a node's timers for it).  Provoke both timer kinds — a
  // coalesced link-up re-propagation and a hold-down expiry — then tear
  // the engine down with them pending.
  tuples::register_standard_tuples();
  FakePlatform platform;
  {
    TupleSpace space;
    EventBus bus;
    Engine engine{NodeId{1}, platform, space, bus};

    GradientTuple remote("field");
    remote.set_uid(TupleUid{NodeId{9}, 1});
    remote.set_hop(2);
    wire::Writer w;
    w.u8(1);
    remote.encode(w);
    engine.on_datagram(NodeId{5}, w.take());
    engine.on_neighbor_up(NodeId{5});
    platform.run_scheduled();
    engine.on_neighbor_down(NodeId{5});  // retraction arms the hold-down
    engine.on_neighbor_up(NodeId{6});    // pending re-propagation round
    ASSERT_GE(platform.pending_scheduled(), 2u);
  }
  EXPECT_EQ(platform.pending_scheduled(), 0u);
  platform.run_scheduled();  // nothing fires into the destroyed engine
}

}  // namespace
}  // namespace tota
