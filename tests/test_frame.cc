// Unit tests for the frame envelope (wire::Frame), plus integration tests
// driving two engines off one broadcast buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "fake_platform.h"
#include "obs/metrics.h"
#include "tota/engine.h"
#include "tuples/all.h"
#include "wire/frame.h"

namespace tota::wire {
namespace {

TupleUid uid(std::uint64_t origin, std::uint64_t seq) {
  return TupleUid{NodeId{origin}, seq};
}

// --- Frame round-trips -----------------------------------------------------

TEST(FrameTest, TupleFrameWrapsBody) {
  const Bytes frame = Frame::tuple([](Writer& w) {
    w.string("hello");
    w.uvarint(42);
  });
  const Frame decoded = Frame::decode(frame);
  EXPECT_EQ(decoded.kind, FrameKind::kTuple);
  Reader r(decoded.tuple_body);
  EXPECT_EQ(r.string(), "hello");
  EXPECT_EQ(r.uvarint(), 42u);
  r.expect_done();
}

TEST(FrameTest, TupleFrameHonoursSizeHint) {
  // Behavioural check only (capacity is an implementation detail): a
  // large hint must not change the encoding.
  const auto body = [](Writer& w) { w.string("x"); };
  EXPECT_EQ(Frame::tuple(body, 4096), Frame::tuple(body, 1));
}

TEST(FrameTest, RetractRoundTrip) {
  const Bytes frame = Frame::retract(uid(7, 9), 3);
  const Frame decoded = Frame::decode(frame);
  EXPECT_EQ(decoded.kind, FrameKind::kRetract);
  EXPECT_EQ(decoded.uid, uid(7, 9));
  EXPECT_EQ(decoded.removed_hop, 3);
}

TEST(FrameTest, ProbeRoundTrip) {
  const Bytes frame = Frame::probe(uid(1, 2));
  const Frame decoded = Frame::decode(frame);
  EXPECT_EQ(decoded.kind, FrameKind::kProbe);
  EXPECT_EQ(decoded.uid, uid(1, 2));
}

// --- malformed envelopes ---------------------------------------------------

TEST(FrameTest, EmptyPayloadRejected) {
  EXPECT_THROW(Frame::decode({}), DecodeError);
}

TEST(FrameTest, UnknownKindRejected) {
  const std::uint8_t payload[] = {0x7f, 0x01};
  EXPECT_THROW(Frame::decode(payload), DecodeError);
}

TEST(FrameTest, TruncatedControlFramesRejected) {
  // Every strict prefix of a valid control frame must fail to decode.
  for (const Bytes& whole : {Frame::retract(uid(300, 1000), -5),
                             Frame::probe(uid(300, 1000))}) {
    for (std::size_t len = 0; len < whole.size(); ++len) {
      const std::span<const std::uint8_t> prefix(whole.data(), len);
      EXPECT_THROW(Frame::decode(prefix), DecodeError) << "len=" << len;
    }
  }
}

TEST(FrameTest, TrailingBytesOnRetractRejected) {
  Bytes frame = Frame::retract(uid(3, 4), 2);
  frame.push_back(0x00);
  EXPECT_THROW(Frame::decode(frame), DecodeError);
}

TEST(FrameTest, ProbeCarriesOptionalPatternBody) {
  // Uid-only probes stay byte-identical to the pre-pattern grammar and
  // decode with an empty body.
  const Bytes plain = Frame::probe(uid(3, 4));
  const Frame decoded_plain = Frame::decode(plain);
  EXPECT_EQ(decoded_plain.uid, uid(3, 4));
  EXPECT_TRUE(decoded_plain.probe_pattern.empty());

  // A probe with a body hands the trailing bytes back verbatim; the wire
  // layer leaves them opaque (the engine decodes the tota::Pattern).
  const Bytes body{0xAB, 0xCD, 0xEF};
  const Bytes with_pattern = Frame::probe(uid(3, 4), body);
  const Frame decoded = Frame::decode(with_pattern);
  EXPECT_EQ(decoded.uid, uid(3, 4));
  ASSERT_EQ(decoded.probe_pattern.size(), body.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(),
                         decoded.probe_pattern.begin()));
}

// --- one decode per receiver ----------------------------------------------

TEST(DecodeOnceTest, OneBufferTwoEnginesGivesIndependentReplicas) {
  tota::tuples::register_standard_tuples();
  obs::Hub hub;
  tota::testing::FakePlatform p1, p2;
  tota::TupleSpace s1, s2;
  tota::EventBus b1, b2;
  tota::Engine e1(NodeId{1}, p1, s1, b1, {}, &hub);
  tota::Engine e2(NodeId{2}, p2, s2, b2, {}, &hub);

  tota::tuples::GradientTuple remote("field");
  remote.set_uid(TupleUid{NodeId{9}, 1});
  remote.content().set("source", NodeId{9}).set("hopcount", 0);
  const Bytes buffer =
      Frame::tuple([&remote](Writer& w) { remote.encode(w); });

  // One transmission, two receivers: each decodes its own span of the
  // same buffer, as both simulators deliver a broadcast.
  e1.on_datagram(NodeId{9}, std::span(buffer));
  e2.on_datagram(NodeId{9}, std::span(buffer));

  for (tota::TupleSpace* space : {&s1, &s2}) {
    const auto* entry = space->find(remote.uid());
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->tuple->hop(), 1);
    EXPECT_EQ(entry->tuple->content().at("hopcount").as_int(), 1);
  }
  // The replicas are distinct objects, not shared mutable state.
  EXPECT_NE(s1.find(remote.uid())->tuple.get(),
            s2.find(remote.uid())->tuple.get());
  EXPECT_EQ(hub.metrics.get("engine.decode_fail"), 0);
}

TEST(DecodeOnceTest, MalformedTupleBodyCountsOneFailurePerReceiver) {
  tota::tuples::register_standard_tuples();
  obs::Hub hub;
  tota::testing::FakePlatform p1, p2;
  tota::TupleSpace s1, s2;
  tota::EventBus b1, b2;
  tota::Engine e1(NodeId{1}, p1, s1, b1, {}, &hub);
  tota::Engine e2(NodeId{2}, p2, s2, b2, {}, &hub);

  // TUPLE envelope around a truncated body: the envelope parses, the
  // body does not.
  const Bytes bad{0x01, 0x05, 'h', 'i'};
  e1.on_datagram(NodeId{9}, std::span(bad));
  e2.on_datagram(NodeId{9}, std::span(bad));

  EXPECT_EQ(e1.decode_failures(), 1u);
  EXPECT_EQ(e2.decode_failures(), 1u);
  EXPECT_EQ(hub.metrics.get("engine.decode_fail"), 2);
  EXPECT_EQ(s1.size(), 0u);
  EXPECT_EQ(s2.size(), 0u);
  EXPECT_TRUE(p1.broadcasts.empty());
  EXPECT_TRUE(p2.broadcasts.empty());
}

}  // namespace
}  // namespace tota::wire
