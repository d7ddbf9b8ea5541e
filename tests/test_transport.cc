// Transport suite: the BATCH grammar, the MTU-aware batcher, the
// reliable-ordered control channel, and the anti-entropy digests —
// plus the end-to-end soaks these features exist for.
//
// Four layers of coverage:
//
//   1. Wire robustness — Datagram::decode fuzzed at every truncation
//      offset of a BATCH carrying every chunk kind (a UDP port is open
//      to arbitrary garbage; decode must throw or return, never
//      misbehave), trailing garbage rejected and counted, the retired
//      HELLO/DATA datagram kinds dropped as bad frames, the BATCH
//      skip-unknown-chunk forward-compatibility contract pinned
//      byte-by-byte.
//
//   2. Component units — pack_batches splitting, Batcher coalescing,
//      ReliableChannel's full state machine (ordering, dedup, floor
//      resync, window backpressure, backoff expiry, peer departure),
//      StoreDigest algebra, and the idempotence primitives behind
//      duplicate-RETRACT safety (HoldDownTable, BoundedUidFifo).
//
//   3. Engine integration — digest-driven resync re-sends exactly the
//      differing buckets; duplicate RETRACTs are no-ops.
//
//   4. TransportWorld soaks — full NetSession stacks on a line topology
//      over an in-memory channel: the drop-0.3 retraction soak (the
//      best-effort baseline leaks the doomed tuple, the reliable
//      channel drains it everywhere), the batching datagram-cost ratio,
//      and the partition-heal digest soak (a silent DATA hole heals
//      with O(diff) resend frames, not O(store)).  One soak leg runs
//      twice to pin bit-for-bit determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fake_platform.h"
#include "net/batch.h"
#include "net/datagram.h"
#include "net/fault.h"
#include "net/reliable.h"
#include "net/session.h"
#include "obs/hub.h"
#include "sim/event_queue.h"
#include "tota/bounded_uid_fifo.h"
#include "tota/digest.h"
#include "tota/hold_down.h"
#include "tota/middleware.h"
#include "tuples/all.h"
#include "tuples/gradient_tuple.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace tota {
namespace {

using tota::testing::FakePlatform;

NodeId id_of(int i) { return NodeId{static_cast<std::uint64_t>(i) + 1}; }

wire::Bytes bytes_of(std::initializer_list<std::uint8_t> b) {
  return wire::Bytes(b);
}

// --- 1. wire robustness ----------------------------------------------------

/// A representative BATCH carrying every chunk kind once.
wire::Bytes sample_batch(NodeId sender) {
  const wire::Bytes frame = bytes_of({0x10, 0x20, 0x30, 0x40});
  std::vector<net::EncodedChunk> chunks;
  chunks.push_back(net::Datagram::chunk_hello(7, SimTime::from_millis(500)));
  chunks.push_back(net::Datagram::chunk_data(frame));
  chunks.push_back(net::Datagram::chunk_rel(9, 4, frame));
  chunks.push_back(net::Datagram::chunk_ack(NodeId{3}, 8));
  StoreDigest digest = StoreDigest::build({}, 4);
  chunks.push_back(net::Datagram::chunk_digest(digest.encode()));
  return net::Datagram::batch(sender, chunks);
}

/// A BATCH datagram carrying one HELLO chunk — a bare discovery beacon.
wire::Bytes hello_batch(NodeId sender, std::uint64_t seq, SimTime period) {
  const net::EncodedChunk hello = net::Datagram::chunk_hello(seq, period);
  return net::Datagram::batch(sender, {&hello, 1});
}

/// Every strict prefix of a BATCH datagram must throw: every chunk is
/// length-prefixed and the grammar ends with an expect_done().
void expect_all_prefixes_throw(const wire::Bytes& datagram) {
  for (std::size_t len = 0; len < datagram.size(); ++len) {
    EXPECT_THROW(
        net::Datagram::decode(std::span(datagram.data(), len)),
        wire::DecodeError)
        << "prefix of length " << len << " of " << datagram.size();
  }
}

TEST(DatagramFuzz, EveryBatchTruncationThrows) {
  expect_all_prefixes_throw(sample_batch(NodeId{300}));
}

TEST(DatagramFuzz, EveryByteFlipThrowsOrDecodes) {
  // Single-byte corruption across a kitchen-sink BATCH: decode must
  // throw DecodeError or produce a datagram — anything else (crash,
  // out-of-bounds read) is what this test + ASan exist to catch.
  const wire::Bytes datagram = sample_batch(NodeId{6});
  for (std::size_t i = 0; i < datagram.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      wire::Bytes mutated = datagram;
      mutated[i] ^= flip;
      try {
        (void)net::Datagram::decode(mutated);
      } catch (const wire::DecodeError&) {
      }
    }
  }
}

TEST(DatagramFuzz, TrailingGarbageRejected) {
  wire::Bytes hello = hello_batch(NodeId{1}, 1, SimTime::from_millis(100));
  hello.push_back(0x00);
  EXPECT_THROW(net::Datagram::decode(hello), wire::DecodeError);

  wire::Bytes batch = sample_batch(NodeId{1});
  batch.push_back(0xA7);
  EXPECT_THROW(net::Datagram::decode(batch), wire::DecodeError);
}

TEST(DatagramFuzz, ForeignAndMalformedEnvelopesRejected) {
  // Wrong magic, wrong version, unknown kind, invalid sender.
  EXPECT_THROW(net::Datagram::decode(bytes_of({0x00, 1, 1, 1, 1, 1})),
               wire::DecodeError);
  EXPECT_THROW(net::Datagram::decode(bytes_of({net::kMagic, 99, 1, 1, 1, 1})),
               wire::DecodeError);
  EXPECT_THROW(net::Datagram::decode(bytes_of({net::kMagic, net::kVersion,
                                               0x09, 1, 1, 1})),
               wire::DecodeError);
  EXPECT_THROW(net::Datagram::decode(bytes_of({net::kMagic, net::kVersion,
                                               0x03, 0, 1, 1})),
               wire::DecodeError);  // sender id 0 is invalid
  EXPECT_THROW(net::Datagram::decode({}), wire::DecodeError);
}

TEST(DatagramBatch, RoundtripsEveryChunkKind) {
  const wire::Bytes datagram = sample_batch(NodeId{42});
  const net::Datagram d = net::Datagram::decode(datagram);
  EXPECT_EQ(d.sender, NodeId{42});
  EXPECT_EQ(d.skipped, 0u);
  ASSERT_EQ(d.chunks.size(), 5u);

  EXPECT_EQ(d.chunks[0].kind, net::ChunkKind::kHello);
  EXPECT_EQ(d.chunks[0].seq, 7u);
  EXPECT_EQ(d.chunks[0].period, SimTime::from_millis(500));

  EXPECT_EQ(d.chunks[1].kind, net::ChunkKind::kData);
  EXPECT_EQ(wire::Bytes(d.chunks[1].payload.begin(),
                        d.chunks[1].payload.end()),
            bytes_of({0x10, 0x20, 0x30, 0x40}));

  EXPECT_EQ(d.chunks[2].kind, net::ChunkKind::kRel);
  EXPECT_EQ(d.chunks[2].seq, 9u);
  EXPECT_EQ(d.chunks[2].floor, 4u);
  EXPECT_EQ(d.chunks[2].payload.size(), 4u);

  EXPECT_EQ(d.chunks[3].kind, net::ChunkKind::kAck);
  EXPECT_EQ(d.chunks[3].peer, NodeId{3});
  EXPECT_EQ(d.chunks[3].cum, 8u);

  EXPECT_EQ(d.chunks[4].kind, net::ChunkKind::kDigest);
  EXPECT_EQ(StoreDigest::decode(d.chunks[4].payload),
            StoreDigest::build({}, 4));
}

/// Hand-assembles a BATCH envelope so tests can write chunk kinds and
/// bodies the builders refuse to produce.
wire::Bytes raw_batch(NodeId sender,
                      const std::vector<std::pair<std::uint8_t, wire::Bytes>>&
                          chunks) {
  wire::Writer w;
  w.u8(net::kMagic);
  w.u8(net::kVersion);
  w.u8(static_cast<std::uint8_t>(net::DatagramKind::kBatch));
  w.uvarint(sender.value());
  w.uvarint(chunks.size());
  for (const auto& [kind, body] : chunks) {
    w.u8(kind);
    w.uvarint(body.size());
    w.raw(body);
  }
  return w.take();
}

TEST(DatagramBatch, UnknownChunkKindsAreSkippedNotFatal) {
  // A known DATA chunk sandwiched between two future chunk kinds: the
  // decoder must deliver the one it knows and count the ones it skipped
  // — this is the forward-compatibility contract of the length prefix.
  const wire::Bytes d = raw_batch(
      NodeId{4}, {{0x09, bytes_of({1, 2, 3})},
                  {static_cast<std::uint8_t>(net::ChunkKind::kData),
                   bytes_of({0xAB})},
                  {0xEE, bytes_of({})}});
  const net::Datagram decoded = net::Datagram::decode(d);
  EXPECT_EQ(decoded.skipped, 2u);
  ASSERT_EQ(decoded.chunks.size(), 1u);
  EXPECT_EQ(decoded.chunks[0].kind, net::ChunkKind::kData);
  EXPECT_EQ(decoded.chunks[0].payload[0], 0xAB);
}

TEST(DatagramBatch, RejectsEmptyAndOversizedChunkCounts) {
  EXPECT_THROW(net::Datagram::decode(raw_batch(NodeId{1}, {})),
               wire::DecodeError);  // count == 0

  wire::Writer w;  // count over kMaxBatchChunks, no bodies needed
  w.u8(net::kMagic);
  w.u8(net::kVersion);
  w.u8(static_cast<std::uint8_t>(net::DatagramKind::kBatch));
  w.uvarint(1);
  w.uvarint(net::kMaxBatchChunks + 1);
  EXPECT_THROW(net::Datagram::decode(w.take()), wire::DecodeError);

  std::vector<net::EncodedChunk> none;
  EXPECT_THROW(net::Datagram::batch(NodeId{1}, none), std::invalid_argument);
  std::vector<net::EncodedChunk> many(net::kMaxBatchChunks + 1);
  for (auto& c : many) c = net::Datagram::chunk_data(bytes_of({1}));
  EXPECT_THROW(net::Datagram::batch(NodeId{1}, many), std::invalid_argument);
}

TEST(DatagramBatch, RejectsMalformedChunkBodies) {
  const auto rel_body = [](std::uint64_t seq, std::uint64_t delta,
                           std::initializer_list<std::uint8_t> frame) {
    wire::Writer w;
    w.uvarint(seq);
    w.uvarint(delta);
    w.raw(wire::Bytes(frame));
    return w.take();
  };
  const auto rel = static_cast<std::uint8_t>(net::ChunkKind::kRel);
  // A REL floor above its own seq (delta underflows) is corruption.
  EXPECT_THROW(net::Datagram::decode(
                   raw_batch(NodeId{1}, {{rel, rel_body(1, 5, {0xAA})}})),
               wire::DecodeError);
  // An empty REL frame carries nothing to deliver reliably.
  EXPECT_THROW(net::Datagram::decode(
                   raw_batch(NodeId{1}, {{rel, rel_body(3, 1, {})}})),
               wire::DecodeError);
  // Empty DATA and DIGEST chunks are corruption, not padding.
  EXPECT_THROW(
      net::Datagram::decode(raw_batch(
          NodeId{1},
          {{static_cast<std::uint8_t>(net::ChunkKind::kData), {}}})),
      wire::DecodeError);
  EXPECT_THROW(
      net::Datagram::decode(raw_batch(
          NodeId{1},
          {{static_cast<std::uint8_t>(net::ChunkKind::kDigest), {}}})),
      wire::DecodeError);
  // An ACK naming the invalid peer 0.
  wire::Writer ack;
  ack.uvarint(0);
  ack.uvarint(3);
  EXPECT_THROW(
      net::Datagram::decode(raw_batch(
          NodeId{1}, {{static_cast<std::uint8_t>(net::ChunkKind::kAck),
                       ack.take()}})),
      wire::DecodeError);
  // A chunk whose declared length runs past the datagram.
  wire::Writer w;
  w.u8(net::kMagic);
  w.u8(net::kVersion);
  w.u8(static_cast<std::uint8_t>(net::DatagramKind::kBatch));
  w.uvarint(1);
  w.uvarint(1);
  w.u8(static_cast<std::uint8_t>(net::ChunkKind::kData));
  w.uvarint(200);
  w.u8(0xAA);
  EXPECT_THROW(net::Datagram::decode(w.take()), wire::DecodeError);
}

// --- 2a. pack_batches ------------------------------------------------------

std::vector<net::EncodedChunk> data_chunks(int n, std::size_t body_size) {
  std::vector<net::EncodedChunk> out;
  for (int i = 0; i < n; ++i) {
    wire::Bytes body(body_size, static_cast<std::uint8_t>(i + 1));
    out.push_back(net::Datagram::chunk_data(body));
  }
  return out;
}

TEST(PackBatches, SplitsAtTheMtuPreservingOrder) {
  net::BatchOptions options;
  // Overhead for NodeId{1} is 5 bytes; each 10-byte chunk costs 12 on
  // the wire, so an MTU of 30 fits exactly two chunks per datagram.
  options.mtu = net::Datagram::batch_overhead(NodeId{1}) + 2 * 12 + 1;
  const auto out = pack_batches(NodeId{1}, data_chunks(5, 10), options);
  ASSERT_EQ(out.size(), 3u);  // 2 + 2 + 1
  int next_tag = 1;
  for (const auto& datagram : out) {
    EXPECT_LE(datagram.size(), options.mtu);
    const net::Datagram d = net::Datagram::decode(datagram);
    for (const auto& chunk : d.chunks) {
      EXPECT_EQ(chunk.payload[0], next_tag++);  // enqueue order held
    }
  }
  EXPECT_EQ(next_tag, 6);
}

TEST(PackBatches, HonorsMaxChunksWithUnlimitedMtu) {
  net::BatchOptions options;
  options.mtu = 0;  // unlimited
  options.max_chunks = 3;
  const auto out = pack_batches(NodeId{1}, data_chunks(7, 4), options);
  ASSERT_EQ(out.size(), 3u);  // 3 + 3 + 1
  EXPECT_EQ(net::Datagram::decode(out[0]).chunks.size(), 3u);
  EXPECT_EQ(net::Datagram::decode(out[2]).chunks.size(), 1u);
}

TEST(PackBatches, OversizeChunkGoesAloneAndIsCounted) {
  obs::MetricsRegistry metrics;
  obs::Counter& oversize = metrics.counter("net.batch.oversize");
  net::BatchOptions options;
  options.mtu = 40;
  auto chunks = data_chunks(1, 4);
  auto big = data_chunks(1, 100);  // alone it exceeds the MTU
  chunks.push_back(std::move(big[0]));
  chunks.push_back(data_chunks(1, 4)[0]);
  const auto out =
      pack_batches(NodeId{1}, std::move(chunks), options, &oversize);
  ASSERT_EQ(out.size(), 3u);  // small / big-alone / small
  EXPECT_EQ(metrics.get("net.batch.oversize"), 1);
  EXPECT_GT(out[1].size(), options.mtu);  // the link decides its fate
}

// --- 2b. Batcher -----------------------------------------------------------

struct BatcherRig {
  explicit BatcherRig(net::BatchOptions options)
      : batcher(NodeId{1}, platform, options,
                [this](wire::Bytes d) { sent.push_back(std::move(d)); },
                metrics) {}

  FakePlatform platform;
  obs::MetricsRegistry metrics;
  std::vector<wire::Bytes> sent;
  net::Batcher batcher;
};

TEST(Batcher, CoalescesOneEventInstantIntoOneDatagram) {
  net::BatchOptions options;
  BatcherRig rig(options);
  rig.batcher.hello(1, SimTime::from_millis(500));
  rig.batcher.data(bytes_of({1}));
  rig.batcher.data(bytes_of({2}));
  EXPECT_TRUE(rig.sent.empty());  // everything waits for the flush
  EXPECT_EQ(rig.platform.pending_scheduled(), 1u);  // one timer, not three
  rig.platform.run_scheduled();
  ASSERT_EQ(rig.sent.size(), 1u);
  const net::Datagram d = net::Datagram::decode(rig.sent[0]);
  ASSERT_EQ(d.chunks.size(), 3u);
  EXPECT_EQ(d.chunks[0].kind, net::ChunkKind::kHello);
  EXPECT_EQ(d.chunks[1].payload[0], 1);
  EXPECT_EQ(d.chunks[2].payload[0], 2);
  EXPECT_EQ(rig.metrics.get("net.batch.tx"), 1);
  EXPECT_EQ(rig.metrics.get("net.batch.chunks"), 3);
  EXPECT_EQ(rig.metrics.get("net.batch.flush"), 1);
}

TEST(Batcher, NewerAckAndDigestSupersedePendingOnes) {
  net::BatchOptions options;
  BatcherRig rig(options);
  rig.batcher.ack(NodeId{7}, 1);
  rig.batcher.ack(NodeId{9}, 4);
  rig.batcher.ack(NodeId{7}, 6);  // cumulative: makes the first redundant
  rig.batcher.digest(bytes_of({0xD1}));
  rig.batcher.digest(bytes_of({0xD2}));  // fresher snapshot of the store
  rig.batcher.flush();
  ASSERT_EQ(rig.sent.size(), 1u);
  const net::Datagram d = net::Datagram::decode(rig.sent[0]);
  ASSERT_EQ(d.chunks.size(), 3u);
  EXPECT_EQ(d.chunks[0].peer, NodeId{7});
  EXPECT_EQ(d.chunks[0].cum, 6u);
  EXPECT_EQ(d.chunks[1].peer, NodeId{9});
  EXPECT_EQ(d.chunks[1].cum, 4u);
  EXPECT_EQ(d.chunks[2].kind, net::ChunkKind::kDigest);
  EXPECT_EQ(d.chunks[2].payload[0], 0xD2);
  // The slots reset with the flush: a post-flush ack is a fresh chunk.
  rig.batcher.ack(NodeId{7}, 9);
  rig.batcher.flush();
  ASSERT_EQ(rig.sent.size(), 2u);
  EXPECT_EQ(net::Datagram::decode(rig.sent[1]).chunks[0].cum, 9u);
}

// --- 2c. ReliableChannel ---------------------------------------------------

struct RelRig {
  explicit RelRig(net::ReliableOptions options = {})
      : channel(platform, options, metrics) {}

  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::ReliableChannel channel;

  struct Emission {
    std::uint64_t seq;
    std::uint64_t floor;
    wire::Bytes frame;
  };
  std::vector<Emission> emitted;
  std::vector<std::pair<NodeId, std::uint64_t>> acked;
  std::vector<std::pair<NodeId, wire::Bytes>> delivered;

  void wire_up() {
    channel.set_emit([this](std::uint64_t seq, std::uint64_t floor,
                            std::span<const std::uint8_t> frame) {
      emitted.push_back({seq, floor, wire::Bytes(frame.begin(), frame.end())});
    });
    channel.set_ack([this](NodeId peer, std::uint64_t cum) {
      acked.emplace_back(peer, cum);
    });
    channel.set_deliver([this](NodeId from,
                               std::span<const std::uint8_t> frame) {
      delivered.emplace_back(from, wire::Bytes(frame.begin(), frame.end()));
    });
  }
};

/// Builds a wired-up rig (the two-phase dance keeps the callbacks able
/// to capture the rig's own vectors).
std::unique_ptr<RelRig> rel_rig(net::ReliableOptions options = {}) {
  auto rig = std::make_unique<RelRig>(options);
  rig->wire_up();
  return rig;
}

TEST(ReliableChannel, SendEmitsOnceAndRetiresOnFullAck) {
  auto rig = rel_rig();
  rig->channel.send(bytes_of({1}), {NodeId{2}, NodeId{3}});
  ASSERT_EQ(rig->emitted.size(), 1u);
  EXPECT_EQ(rig->emitted[0].seq, 1u);
  EXPECT_EQ(rig->emitted[0].floor, 1u);
  EXPECT_EQ(rig->channel.in_flight(), 1u);

  rig->channel.on_ack(NodeId{2}, 1);
  EXPECT_EQ(rig->channel.in_flight(), 1u);  // 3 still owes an ack
  rig->channel.on_ack(NodeId{3}, 1);
  EXPECT_EQ(rig->channel.in_flight(), 0u);
  EXPECT_EQ(rig->channel.floor(), 2u);  // nothing below 2 retransmits
  EXPECT_EQ(rig->metrics.get("net.rel.tx"), 1);
  EXPECT_EQ(rig->metrics.get("net.rel.acked"), 1);
  EXPECT_EQ(rig->metrics.get("net.rel.ack_rx"), 2);
}

TEST(ReliableChannel, EmptyTargetSetIsBestEffort) {
  auto rig = rel_rig();
  rig->channel.send(bytes_of({1}), {});
  EXPECT_EQ(rig->emitted.size(), 1u);
  EXPECT_EQ(rig->channel.in_flight(), 0u);  // nobody to wait for
  EXPECT_EQ(rig->channel.floor(), 2u);      // but the seq is consumed
  EXPECT_EQ(rig->platform.pending_scheduled(), 0u);
}

TEST(ReliableChannel, EmptyTargetEmissionRoundTripsThroughTheCodec) {
  auto rig = rel_rig();
  rig->channel.send(bytes_of({7}), {});
  ASSERT_EQ(rig->emitted.size(), 1u);
  // With an empty window the post-send floor is seq+1, which chunk_rel
  // cannot encode (it writes seq - floor as a uvarint): the emission
  // must carry a floor at or below its own seq, or every receiver
  // throws "REL floor above its own seq" and drops the whole BATCH the
  // chunk rode in — HELLO/DATA/ACK neighbours included.
  EXPECT_LE(rig->emitted[0].floor, rig->emitted[0].seq);
  const net::EncodedChunk chunk = net::Datagram::chunk_rel(
      rig->emitted[0].seq, rig->emitted[0].floor, rig->emitted[0].frame);
  const net::Datagram decoded =
      net::Datagram::decode(net::Datagram::batch(NodeId{1}, {&chunk, 1}));
  ASSERT_EQ(decoded.chunks.size(), 1u);
  EXPECT_EQ(decoded.chunks[0].seq, 1u);
  EXPECT_EQ(decoded.chunks[0].floor, 1u);
}

TEST(ReliableChannel, RetiredQueueEntryEmitsACodecSafeFloor) {
  net::ReliableOptions options;
  options.window = 1;
  auto rig = rel_rig(options);
  rig->channel.send(bytes_of({1}), {NodeId{2}});
  rig->channel.send(bytes_of({2}), {NodeId{3}});  // queued behind the window
  rig->channel.on_peer_down(NodeId{3});  // prunes the queued entry in place
  rig->channel.on_ack(NodeId{2}, 1);     // retires seq 1 → the queue drains
  ASSERT_EQ(rig->emitted.size(), 2u);
  EXPECT_EQ(rig->emitted[1].seq, 2u);
  EXPECT_EQ(rig->emitted[1].floor, 2u);  // not 3: same encode limit as above
  EXPECT_EQ(rig->channel.in_flight(), 0u);
}

TEST(ReliableChannel, WindowBackpressureQueuesAndDrainsInOrder) {
  net::ReliableOptions options;
  options.window = 2;
  auto rig = rel_rig(options);
  rig->channel.send(bytes_of({1}), {NodeId{2}});
  rig->channel.send(bytes_of({2}), {NodeId{2}});
  rig->channel.send(bytes_of({3}), {NodeId{2}});
  EXPECT_EQ(rig->channel.in_flight(), 2u);
  EXPECT_EQ(rig->channel.queued(), 1u);
  EXPECT_EQ(rig->emitted.size(), 2u);  // the third never hit the wire

  rig->channel.on_ack(NodeId{2}, 1);  // frees a slot → the queue drains
  EXPECT_EQ(rig->channel.queued(), 0u);
  EXPECT_EQ(rig->channel.in_flight(), 2u);
  ASSERT_EQ(rig->emitted.size(), 3u);
  EXPECT_EQ(rig->emitted[2].seq, 3u);
  EXPECT_EQ(rig->emitted[2].floor, 2u);  // seq 1 is retired, 2 is not
}

TEST(ReliableChannel, RetransmitsWithBackoffThenExpires) {
  net::ReliableOptions options;
  options.max_attempts = 3;
  options.rtx_jitter = 0.0;  // deterministic spacing for the assertions
  auto rig = rel_rig(options);
  rig->channel.send(bytes_of({1}), {NodeId{2}});
  const SimTime t0 = rig->platform.scheduled.back().when;

  rig->platform.run_scheduled();  // attempt 2
  EXPECT_EQ(rig->metrics.get("net.rel.rtx"), 1);
  const SimTime t1 = rig->platform.scheduled.back().when;
  EXPECT_GT(t1 - t0, SimTime::zero());  // backoff doubled the spacing

  rig->platform.run_scheduled();  // attempt 3 (the last allowed)
  EXPECT_EQ(rig->metrics.get("net.rel.rtx"), 2);
  rig->platform.run_scheduled();  // due again → attempts exhausted
  EXPECT_EQ(rig->metrics.get("net.rel.expired"), 1);
  EXPECT_EQ(rig->channel.in_flight(), 0u);
  EXPECT_EQ(rig->channel.floor(), 2u);  // the gap is public: floor moved on
  EXPECT_EQ(rig->metrics.get("net.rel.rtx"), 2);  // expiry transmits nothing
}

TEST(ReliableChannel, PeerDepartureRetiresItsDebts) {
  auto rig = rel_rig();
  rig->channel.send(bytes_of({1}), {NodeId{2}, NodeId{3}});
  rig->channel.send(bytes_of({2}), {NodeId{3}});
  rig->channel.on_ack(NodeId{2}, 1);
  EXPECT_EQ(rig->channel.in_flight(), 2u);  // 3 owes both
  rig->channel.on_peer_down(NodeId{3});
  EXPECT_EQ(rig->channel.in_flight(), 0u);  // nobody left to wait for
  EXPECT_EQ(rig->platform.pending_scheduled(), 0u);  // rtx timer gone
}

TEST(ReliableChannel, InOrderDeliveryDupDropAndReack) {
  auto rig = rel_rig();
  const NodeId sender{9};
  rig->channel.on_rel(sender, 1, 1, bytes_of({1}));
  rig->channel.on_rel(sender, 2, 1, bytes_of({2}));
  ASSERT_EQ(rig->delivered.size(), 2u);
  EXPECT_EQ(rig->channel.expected(sender), 3u);

  // A retransmission of seq 1: dropped, but re-acked so the sender can
  // finally retire it (our earlier ack may have been lost).
  rig->channel.on_rel(sender, 1, 1, bytes_of({1}));
  EXPECT_EQ(rig->delivered.size(), 2u);
  EXPECT_EQ(rig->metrics.get("net.rel.dup"), 1);
  ASSERT_EQ(rig->acked.size(), 3u);
  EXPECT_EQ(rig->acked.back(), (std::pair<NodeId, std::uint64_t>{sender, 2}));
}

TEST(ReliableChannel, BuffersOutOfOrderAndDrainsOnTheGapFill) {
  auto rig = rel_rig();
  const NodeId sender{9};
  rig->channel.on_rel(sender, 1, 1, bytes_of({1}));
  rig->channel.on_rel(sender, 3, 1, bytes_of({3}));
  rig->channel.on_rel(sender, 4, 1, bytes_of({4}));
  EXPECT_EQ(rig->delivered.size(), 1u);  // 3 and 4 wait for 2
  EXPECT_EQ(rig->metrics.get("net.rel.ooo"), 2);
  rig->channel.on_rel(sender, 2, 1, bytes_of({2}));
  ASSERT_EQ(rig->delivered.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig->delivered[i].second[0], i + 1);  // strict order
  }
  EXPECT_EQ(rig->acked.back().second, 4u);
}

TEST(ReliableChannel, LateJoinerSyncsFromTheFloorNotFromSeqOne) {
  auto rig = rel_rig();
  const NodeId sender{9};
  // First thing we ever hear is seq 6 with floor 5: the sender retired
  // 1..4 before we arrived; waiting for them would deadlock the stream.
  rig->channel.on_rel(sender, 6, 5, bytes_of({6}));
  EXPECT_EQ(rig->channel.expected(sender), 5u);
  EXPECT_TRUE(rig->delivered.empty());  // 6 buffers behind 5
  rig->channel.on_rel(sender, 5, 5, bytes_of({5}));
  ASSERT_EQ(rig->delivered.size(), 2u);
  EXPECT_EQ(rig->delivered[0].second[0], 5);
  EXPECT_EQ(rig->delivered[1].second[0], 6);
}

TEST(ReliableChannel, FloorAdvanceSkipsAbandonedFramesAndFlushesBuffered) {
  auto rig = rel_rig();
  const NodeId sender{9};
  rig->channel.on_rel(sender, 1, 1, bytes_of({1}));
  rig->channel.on_rel(sender, 4, 1, bytes_of({4}));  // buffered (2,3 missing)
  // The sender gave up on 2 and 3 (expiry): its next emission carries
  // floor 4.  We must stop waiting, deliver the buffered 4, take 5.
  rig->channel.on_rel(sender, 5, 4, bytes_of({5}));
  ASSERT_EQ(rig->delivered.size(), 3u);
  EXPECT_EQ(rig->delivered[1].second[0], 4);
  EXPECT_EQ(rig->delivered[2].second[0], 5);
  EXPECT_EQ(rig->metrics.get("net.rel.skipped"), 2);  // 2 and 3, never 4
  EXPECT_EQ(rig->channel.expected(sender), 6u);
}

TEST(ReliableChannel, RxBufferOverflowDropsEarlyFrames) {
  net::ReliableOptions options;
  options.rx_buffer = 2;
  auto rig = rel_rig(options);
  const NodeId sender{9};
  rig->channel.on_rel(sender, 3, 1, bytes_of({3}));
  rig->channel.on_rel(sender, 4, 1, bytes_of({4}));
  rig->channel.on_rel(sender, 5, 1, bytes_of({5}));  // buffer full
  EXPECT_EQ(rig->metrics.get("net.rel.rx_overflow"), 1);
  // The retransmit covers the loss: 5 arrives again after the gap fills.
  rig->channel.on_rel(sender, 1, 1, bytes_of({1}));
  rig->channel.on_rel(sender, 2, 1, bytes_of({2}));
  rig->channel.on_rel(sender, 5, 1, bytes_of({5}));
  ASSERT_EQ(rig->delivered.size(), 5u);
  EXPECT_EQ(rig->delivered.back().second[0], 5);
}

TEST(ReliableChannel, ReackAllRefreshesEveryKnownStream) {
  auto rig = rel_rig();
  rig->channel.on_rel(NodeId{4}, 1, 1, bytes_of({1}));
  rig->channel.on_rel(NodeId{5}, 1, 1, bytes_of({2}));
  rig->acked.clear();
  rig->channel.reack_all();
  ASSERT_EQ(rig->acked.size(), 2u);  // one standing ack per sender
  for (const auto& [peer, cum] : rig->acked) EXPECT_EQ(cum, 1u);
}

TEST(ReliableChannel, PeerDownForgetsTheRxStream) {
  auto rig = rel_rig();
  rig->channel.on_rel(NodeId{4}, 1, 1, bytes_of({1}));
  EXPECT_EQ(rig->channel.expected(NodeId{4}), 2u);
  rig->channel.on_peer_down(NodeId{4});
  EXPECT_EQ(rig->channel.expected(NodeId{4}), 0u);
  // The peer returns after a restart, its stream reset: the fresh
  // floor-1 frame must be accepted, not dropped as an ancient dup.
  rig->channel.on_rel(NodeId{4}, 1, 1, bytes_of({9}));
  ASSERT_EQ(rig->delivered.size(), 2u);
  EXPECT_EQ(rig->delivered.back().second[0], 9);
}

// --- 2d. StoreDigest -------------------------------------------------------

std::vector<TupleUid> sample_uids(int n, std::uint64_t origin = 1) {
  std::vector<TupleUid> uids;
  for (int i = 0; i < n; ++i) {
    uids.push_back(TupleUid{NodeId{origin}, static_cast<std::uint64_t>(i + 1)});
  }
  return uids;
}

TEST(StoreDigest, EncodeDecodeRoundtrip) {
  const StoreDigest d = StoreDigest::build(sample_uids(17), 8);
  EXPECT_EQ(d.count, 17u);
  EXPECT_EQ(d.buckets.size(), 8u);
  EXPECT_EQ(StoreDigest::decode(d.encode()), d);
}

TEST(StoreDigest, OrderIndependentAndSelfInverse) {
  auto uids = sample_uids(9);
  const StoreDigest forward = StoreDigest::build(uids, 4);
  std::reverse(uids.begin(), uids.end());
  EXPECT_EQ(StoreDigest::build(uids, 4), forward);  // XOR fold commutes

  // Adding a uid twice removes it: identical stores always agree even
  // if one built its digest incrementally through add/remove churn.
  StoreDigest churned = forward;
  const TupleUid extra{NodeId{5}, 99};
  churned.add(extra);
  EXPECT_NE(churned.buckets, forward.buckets);
  churned.add(extra);
  EXPECT_EQ(churned.buckets, forward.buckets);
}

TEST(StoreDigest, MismatchIsConfinedToTheDifferingBucket) {
  const auto uids = sample_uids(32);
  const StoreDigest full = StoreDigest::build(uids, 16);
  auto missing_one = uids;
  const TupleUid dropped = missing_one.back();
  missing_one.pop_back();
  const StoreDigest partial = StoreDigest::build(missing_one, 16);
  const std::size_t hot = StoreDigest::bucket_of(dropped, 16);
  for (std::size_t b = 0; b < 16; ++b) {
    if (b == hot) {
      EXPECT_NE(full.buckets[b], partial.buckets[b]);
    } else {
      // Every other bucket still matches unless a same-bucket uid also
      // changed — here nothing else did, so the diff is exactly one.
      EXPECT_EQ(full.buckets[b], partial.buckets[b]);
    }
  }
}

TEST(StoreDigest, BucketCountIsClampedAndValidated) {
  EXPECT_EQ(StoreDigest::build(sample_uids(3), 0).buckets.size(), 1u);
  EXPECT_EQ(StoreDigest::build(sample_uids(3), kMaxDigestBuckets + 7)
                .buckets.size(),
            kMaxDigestBuckets);

  // decode is stricter than build: a zero or oversized count on the
  // wire is corruption, not a clamping opportunity.
  wire::Writer zero;
  zero.uvarint(0);
  zero.uvarint(0);
  EXPECT_THROW(StoreDigest::decode(zero.take()), wire::DecodeError);
  wire::Writer huge;
  huge.uvarint(kMaxDigestBuckets + 1);
  huge.uvarint(0);
  EXPECT_THROW(StoreDigest::decode(huge.take()), wire::DecodeError);

  wire::Bytes truncated = StoreDigest::build(sample_uids(4), 4).encode();
  truncated.pop_back();
  EXPECT_THROW(StoreDigest::decode(truncated), wire::DecodeError);
  wire::Bytes padded = StoreDigest::build(sample_uids(4), 4).encode();
  padded.push_back(0);
  EXPECT_THROW(StoreDigest::decode(padded), wire::DecodeError);
}

// --- 2e. duplicate-retraction primitives -----------------------------------

TEST(HoldDownTable, ReArmPushesTheExpiryOut) {
  HoldDownTable table;
  const TupleUid uid{NodeId{1}, 7};
  table.arm(uid, SimTime::from_seconds(1), 2);
  EXPECT_TRUE(table.blocks(uid, 2, SimTime::from_millis(500)));
  EXPECT_TRUE(table.blocks(uid, 5, SimTime::from_millis(500)));
  EXPECT_FALSE(table.blocks(uid, 1, SimTime::from_millis(500)));  // better

  // A duplicate retraction re-arms further out: the old deadline is no
  // longer an expiry (expire() says "not due"), the new one is.
  table.arm(uid, SimTime::from_seconds(2), 2);
  EXPECT_FALSE(table.expire(uid, SimTime::from_seconds(1)));
  EXPECT_TRUE(table.blocks(uid, 2, SimTime::from_millis(1500)));
  EXPECT_TRUE(table.expire(uid, SimTime::from_seconds(2)));
  EXPECT_FALSE(table.blocks(uid, 2, SimTime::from_seconds(2)));
  EXPECT_FALSE(table.expire(uid, SimTime::from_seconds(3)));  // already gone
  EXPECT_EQ(table.size(), 0u);
}

TEST(HoldDownTable, DisarmEndsTheHoldEarly) {
  HoldDownTable table;
  const TupleUid uid{NodeId{1}, 7};
  table.arm(uid, SimTime::from_seconds(1), 2);
  table.disarm(uid);
  EXPECT_FALSE(table.blocks(uid, 2, SimTime::zero()));
  EXPECT_FALSE(table.expire(uid, SimTime::from_seconds(1)));
}

TEST(BoundedUidFifo, DuplicateInsertIsRefusedAndEvictionSkipsStaleSlots) {
  BoundedUidFifo<int> fifo(4);
  const auto uid = [](std::uint64_t n) { return TupleUid{NodeId{1}, n}; };
  EXPECT_TRUE(fifo.insert(uid(1), 10));
  EXPECT_FALSE(fifo.insert(uid(1), 99));  // a duplicate RETRACT's uid
  ASSERT_NE(fifo.find(uid(1)), nullptr);
  EXPECT_EQ(*fifo.find(uid(1)), 10);  // the original value survives

  // External erase leaves a stale order slot; eviction must not let it
  // spend quota or evict a re-inserted successor.
  EXPECT_TRUE(fifo.erase(uid(1)));
  EXPECT_TRUE(fifo.insert(uid(1), 11));
  for (std::uint64_t n = 2; n <= 5; ++n) fifo.insert(uid(n));
  EXPECT_LE(fifo.size(), 4u);  // eviction ran
  EXPECT_TRUE(fifo.contains(uid(5)));  // newest survives
}

// --- 3. engine integration -------------------------------------------------

struct EnginePair {
  EnginePair()
      : a(id_of(0), pa, {}, &hub_a), b(id_of(1), pb, {}, &hub_b) {
    tuples::register_standard_tuples();
    a.on_neighbor_up(id_of(1));
    b.on_neighbor_up(id_of(0));
  }

  /// Ships every frame A has broadcast so far into B (A's outbox is
  /// consumed), except the ones `skip` selects — the harness's packet
  /// loss.
  int ship_a_to_b(const std::function<bool(std::size_t)>& skip = nullptr) {
    int shipped = 0;
    for (std::size_t i = 0; i < pa.broadcasts.size(); ++i) {
      if (skip && skip(i)) continue;
      b.on_datagram(id_of(0), pa.broadcasts[i]);
      ++shipped;
    }
    pa.broadcasts.clear();
    return shipped;
  }

  FakePlatform pa, pb;
  obs::Hub hub_a, hub_b;
  Middleware a, b;
};

TEST(EngineSync, DigestResyncRepairsASilentHoleInODiffFrames) {
  EnginePair pair;
  std::vector<TupleUid> uids;
  for (int i = 0; i < 12; ++i) {
    uids.push_back(pair.a.inject(std::make_unique<tuples::GradientTuple>(
        "t" + std::to_string(i))));
  }
  // B misses exactly one of the twelve floods — a silent hole: no link
  // event fired, so nothing in the event-driven path will ever repair it.
  const std::size_t lost = 7;
  pair.ship_a_to_b([&](std::size_t i) { return i == lost; });
  ASSERT_EQ(pair.b.read(Pattern::of_type(tuples::GradientTuple::kTag)).size(),
            11u);

  // B ships its digest to A (the session does this on the beacon
  // cadence); A re-broadcasts only the differing buckets' tuples.
  const int resent = pair.a.on_digest(id_of(1), pair.b.digest(64));
  EXPECT_GE(resent, 1);
  EXPECT_LE(resent, 3);  // O(diff): nowhere near the 12-tuple store
  EXPECT_EQ(pair.hub_a.metrics.get("net.sync.resend"), resent);
  pair.ship_a_to_b();
  EXPECT_EQ(pair.b.read(Pattern::of_type(tuples::GradientTuple::kTag)).size(),
            12u);

  // Converged stores exchange digests for free: no resend either way.
  EXPECT_EQ(pair.a.on_digest(id_of(1), pair.b.digest(64)), 0);
  EXPECT_EQ(pair.b.on_digest(id_of(0), pair.a.digest(64)), 0);
}

TEST(EngineSync, DigestOfPropagatedSetSurvivesEncodeRoundtrip) {
  EnginePair pair;
  pair.a.inject(std::make_unique<tuples::GradientTuple>("x"));
  const StoreDigest d = pair.a.digest(32);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(StoreDigest::decode(d.encode()), d);
}

TEST(EngineRetract, DuplicateRetractIsIdempotent) {
  EnginePair pair;
  const TupleUid uid =
      pair.a.inject(std::make_unique<tuples::GradientTuple>("g"));
  pair.ship_a_to_b();
  const Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  ASSERT_FALSE(pair.b.read(p).empty());

  // A retracts (its replica at hop 0 went away); the RETRACT reaches B
  // twice — the second copy is exactly what a reliable-channel
  // retransmission racing its own ack looks like.
  const wire::Bytes retract = wire::Frame::retract(uid, 0);
  pair.b.on_datagram(id_of(0), retract);
  EXPECT_TRUE(pair.b.read(p).empty());
  const auto started = pair.hub_b.metrics.get("maint.retract_started");
  const auto cascaded = pair.hub_b.metrics.get("maint.retract_cascaded");
  const auto broadcasts = pair.pb.broadcasts.size();

  pair.b.on_datagram(id_of(0), retract);
  EXPECT_TRUE(pair.b.read(p).empty());
  // No second cascade, no extra traffic: the duplicate was absorbed.
  EXPECT_EQ(pair.hub_b.metrics.get("maint.retract_started"), started);
  EXPECT_EQ(pair.hub_b.metrics.get("maint.retract_cascaded"), cascaded);
  EXPECT_EQ(pair.pb.broadcasts.size(), broadcasts);
}

// --- 4. TransportWorld -----------------------------------------------------

/// tota::Platform over a shared sim::EventQueue whose broadcast seam
/// routes through the node's NetSession — the session is what turns
/// engine frames into datagrams.  The pointer is set right after
/// the session is constructed (the session itself never broadcasts
/// through the Platform, so the window is safe).
class SessionPlatform final : public Platform {
 public:
  SessionPlatform(sim::EventQueue& events, Rng rng)
      : events_(events), rng_(rng) {}

  void broadcast(wire::Bytes payload) override {
    if (session != nullptr) session->broadcast(std::move(payload));
  }
  void broadcast_reliable(wire::Bytes payload) override {
    if (session != nullptr) session->broadcast_reliable(std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return events_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(TimerId id) override { events_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

  net::NetSession* session = nullptr;

 private:
  sim::EventQueue& events_;
  Rng rng_;
};

constexpr SimTime kLinkDelay = SimTime::from_millis(2);

struct TransportConfig {
  net::SessionOptions session;
  net::FaultPlan fault;  // applied per directed link while faults are on
};

net::DiscoveryOptions fast_discovery() {
  net::DiscoveryOptions o;
  o.beacon_period = SimTime::from_millis(100);
  o.beacon_jitter = 0.2;
  // Deep enough that drop 0.3 essentially never fakes a death
  // (0.3^12 per beacon): the soaks probe the transport under loss, not
  // discovery's churn response — tests/test_soak.cc owns that.  A real
  // death still expires in ~1.2s.
  o.expiry_missed_beacons = 12;
  return o;
}

/// N full live stacks (Middleware + NetSession) on a line topology over an
/// in-memory broadcast channel with per-directed-link fault injection —
/// the soak harness of the transport layer.  Unlike tests/test_soak.cc
/// (which wires Discovery and the engine by hand), every datagram here
/// is produced and consumed by NetSession, so batching, the reliable channel, and
/// the digest exchange run exactly as they would under LivePlatform.
class TransportWorld {
 public:
  /// Drops a datagram on the directed link `from → to` when it returns
  /// true (the harness's surgical loss, independent of the injectors).
  using DropFilter = std::function<bool(int from, int to,
                                        const wire::Bytes& datagram)>;

  TransportWorld(std::uint64_t seed, int count, TransportConfig config)
      : count_(count),
        config_(std::move(config)),
        master_(seed),
        channel_platform_(events_, master_.fork()) {
    tuples::register_standard_tuples();
    for (int i = 0; i < count_; ++i) {
      nodes_.push_back(std::make_unique<Node>(*this, i));
    }
    for (int i = 0; i < count_; ++i) {
      for (const int j : neighbors_of(i)) {
        links_.emplace(key(i, j),
                       std::make_unique<net::FaultInjector>(
                           config_.fault, channel_platform_, hub_.metrics));
      }
    }
  }

  void start() {
    for (auto& n : nodes_) n->session.start();
  }

  void at(SimTime when, std::function<void()> action) {
    events_.schedule_at(when, std::move(action));
  }
  void run_until(SimTime deadline) { events_.run_until(deadline); }

  void set_faulty(bool on) { faulty_ = on; }
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }
  void flush_links() {
    for (auto& [k, inj] : links_) inj->flush();
  }

  void inject(int i, const std::string& name) {
    nodes_[i]->mw.inject(std::make_unique<tuples::GradientTuple>(name));
  }
  void kill(int i) {
    nodes_[i]->alive = false;
    nodes_[i]->session.stop();
  }

  [[nodiscard]] bool alive(int i) const { return nodes_[i]->alive; }
  [[nodiscard]] Middleware& mw(int i) { return nodes_[i]->mw; }
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  [[nodiscard]] std::int64_t datagrams_tx() const { return datagrams_tx_; }
  void reset_datagram_count() { datagrams_tx_ = 0; }

  [[nodiscard]] std::vector<int> neighbors_of(int i) const {
    std::vector<int> out;
    if (i > 0) out.push_back(i - 1);
    if (i + 1 < count_) out.push_back(i + 1);
    return out;
  }

 private:
  struct Node {
    Node(TransportWorld& w, int i)
        : platform(w.events_, w.master_.fork()),
          session(
              id_of(i), platform, w.config_.session,
              [&w, i](wire::Bytes d) { w.send(i, std::move(d)); },
              w.hub_.metrics),
          mw(id_of(i), platform, {}, &w.hub_) {
      platform.session = &session;
      session.attach(&mw);
    }

    SessionPlatform platform;
    net::NetSession session;
    Middleware mw;
    bool alive = true;
  };

  [[nodiscard]] int key(int i, int j) const { return i * count_ + j; }

  void send(int i, wire::Bytes bytes) {
    if (!nodes_[i]->alive) return;
    ++datagrams_tx_;  // one transmission, any receiver count (broadcast)
    for (const int j : neighbors_of(i)) {
      if (drop_filter_ && drop_filter_(i, j, bytes)) continue;
      const auto deliver = [this, j](const wire::Bytes& damaged) {
        const auto copy = std::make_shared<const wire::Bytes>(damaged);
        events_.schedule_after(kLinkDelay,
                               [this, j, copy] { receive(j, *copy); });
      };
      if (faulty_) {
        links_.at(key(i, j))->process(bytes, deliver, id_of(i), id_of(j));
      } else {
        deliver(bytes);
      }
    }
  }

  void receive(int j, const wire::Bytes& bytes) {
    if (!nodes_[j]->alive) return;
    nodes_[j]->session.on_raw(bytes);
  }

  int count_;
  TransportConfig config_;
  sim::EventQueue events_;
  Rng master_;
  obs::Hub hub_;
  SessionPlatform channel_platform_;  // clock + rng source for the injectors
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<int, std::unique_ptr<net::FaultInjector>> links_;
  bool faulty_ = false;
  DropFilter drop_filter_;
  std::int64_t datagrams_tx_ = 0;
};

/// True when the (well-formed — the harness produced it) datagram
/// carries any engine frame in a DATA chunk.
bool carries_data(const wire::Bytes& datagram) {
  const net::Datagram d = net::Datagram::decode(datagram);
  return std::any_of(d.chunks.begin(), d.chunks.end(), [](const auto& c) {
    return c.kind == net::ChunkKind::kData;
  });
}

// --- 4a. the drop-0.3 retraction soak --------------------------------------

constexpr int kSoakNodes = 6;

struct RetractionResult {
  int leaked = 0;  // alive nodes still holding the doomed tuple
  std::vector<std::int64_t> main_hops;
  std::int64_t rel_tx = 0;
  std::int64_t rel_rtx = 0;
  std::int64_t rel_acked = 0;
  std::int64_t fault_processed = 0;
  std::int64_t datagrams = 0;

  bool operator==(const RetractionResult&) const = default;
};

/// The retraction-under-loss scenario: a 6-node line, drop 0.3 on every
/// directed link, and — unlike tests/test_soak.cc, which kills its
/// doomed source only after the faults quiesce — the source dies *while
/// the channel is lossy*.  Each hop of the retraction cascade then rides
/// a 0.3-loss link exactly once in the best-effort baseline: one lost
/// RETRACT strands every node upstream of it with a stale replica
/// forever (nothing re-offers a retraction).  The reliable channel
/// retransmits until acked, so the cascade completes anyway.
RetractionResult run_retraction_soak(std::uint64_t seed, bool reliable) {
  TransportConfig config;
  config.session.discovery = fast_discovery();
  config.session.reliable = reliable;
  config.fault.drop = 0.3;

  TransportWorld world(seed, kSoakNodes, config);
  world.start();
  world.at(SimTime::from_seconds(1), [&] { world.inject(0, "main"); });
  world.at(SimTime::from_millis(1200),
           [&] { world.inject(kSoakNodes - 1, "doomed"); });
  world.at(SimTime::from_seconds(2), [&] { world.set_faulty(true); });
  // The doomed source dies mid-chaos: its neighbour detects the silence
  // and starts the retraction cascade over the still-lossy channel.
  world.at(SimTime::from_seconds(3), [&] { world.kill(kSoakNodes - 1); });
  world.at(SimTime::from_seconds(10), [&] {
    world.set_faulty(false);
    world.flush_links();
  });
  world.run_until(SimTime::from_seconds(14));

  RetractionResult r;
  const Pattern doomed =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "doomed");
  const Pattern main_p =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "main");
  for (int i = 0; i < kSoakNodes; ++i) {
    if (!world.alive(i)) continue;
    if (!world.mw(i).read(doomed).empty()) ++r.leaked;
    const auto replica = world.mw(i).read_one(main_p);
    r.main_hops.push_back(replica == nullptr
                              ? -1
                              : replica->content().at("hopcount").as_int());
  }
  auto& m = world.hub().metrics;
  r.rel_tx = m.get("net.rel.tx");
  r.rel_rtx = m.get("net.rel.rtx");
  r.rel_acked = m.get("net.rel.acked");
  r.fault_processed = m.get("net.fault.processed");
  r.datagrams = world.datagrams_tx();
  return r;
}

TEST(TransportSoak, BestEffortBaselineLeaksTheRetraction) {
  // Retraction delivery ratio < 1.0 at drop 0.3: at least one of the
  // seeds strands a stale replica.  (Each cascade hop survives with
  // p = 0.7, so a leak-free triple of seeds would be rare luck — and
  // the seeds are fixed, so this is a pinned fact, not a flake.)
  int leaked = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const RetractionResult r = run_retraction_soak(seed, /*reliable=*/false);
    leaked += r.leaked;
    EXPECT_EQ(r.rel_tx, 0) << "best effort must not touch the reliable channel";
  }
  EXPECT_GT(leaked, 0);
}

TEST(TransportSoak, ReliableChannelDrainsEveryRetraction) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const RetractionResult r = run_retraction_soak(seed, /*reliable=*/true);
    // Delivery ratio 1.0: every alive node drained the doomed tuple
    // within the soak horizon.
    EXPECT_EQ(r.leaked, 0) << "seed " << seed;
    // The channel did real work: control frames flowed, the 0.3-loss
    // links forced retransmissions, and the acks retired them.
    EXPECT_GT(r.rel_tx, 0) << "seed " << seed;
    EXPECT_GT(r.rel_rtx, 0) << "seed " << seed;
    EXPECT_GT(r.rel_acked, 0) << "seed " << seed;
    // The main gradient stayed intact end to end.
    ASSERT_EQ(r.main_hops.size(), static_cast<std::size_t>(kSoakNodes - 1))
        << "seed " << seed;
    for (int i = 0; i < kSoakNodes - 1; ++i) {
      EXPECT_EQ(r.main_hops[i], i) << "seed " << seed << " node " << i;
    }
  }
}

TEST(TransportSoak, IdenticalSeedsProduceIdenticalRuns) {
  const RetractionResult once = run_retraction_soak(2, /*reliable=*/true);
  const RetractionResult twice = run_retraction_soak(2, /*reliable=*/true);
  EXPECT_EQ(once, twice);
}

// --- 4b. batching halves (at least) the datagram bill ----------------------

TEST(TransportBatch, BatchingCutsDatagramsPerDeliveredTupleTwofold) {
  constexpr int kTuples = 20;
  const Pattern all = Pattern::of_type(tuples::GradientTuple::kTag);
  std::int64_t cost[2] = {0, 0};
  for (const bool batching : {false, true}) {
    TransportConfig config;
    config.session.discovery = fast_discovery();
    // A quiet beacon cadence so the measured window is dominated by
    // data traffic, as in the committed BENCH_transport scenario.
    config.session.discovery.beacon_period = SimTime::from_millis(500);
    // Without coalescing every chunk travels alone: one engine frame
    // per datagram.
    if (!batching) config.session.batch.max_chunks = 1;

    TransportWorld world(7, kSoakNodes, config);
    world.start();
    world.run_until(SimTime::from_seconds(1));
    world.reset_datagram_count();
    // One burst, all in the same event instant — a node reacting to a
    // 20-frame batch re-broadcasts 20 reactions as one datagram.
    world.at(SimTime::from_millis(1001), [&] {
      for (int t = 0; t < kTuples; ++t) {
        world.inject(0, "t" + std::to_string(t));
      }
    });
    world.run_until(SimTime::from_seconds(3));
    for (int i = 0; i < kSoakNodes; ++i) {
      ASSERT_EQ(world.mw(i).read(all).size(),
                static_cast<std::size_t>(kTuples))
          << "batching=" << batching << " node " << i;
    }
    cost[batching ? 1 : 0] = world.datagrams_tx();
    if (batching) {
      auto& m = world.hub().metrics;
      EXPECT_GT(m.get("net.batch.tx"), 0);
      EXPECT_GT(m.get("net.batch.chunks"), m.get("net.batch.tx"));
    }
  }
  // Same tuples delivered everywhere, at least 2x fewer datagrams —
  // the acceptance ratio of the batcher, here as a regression floor.
  EXPECT_GE(cost[0], 2 * cost[1])
      << "unbatched=" << cost[0] << " batched=" << cost[1];
}

// --- 4c. the partition-heal digest soak ------------------------------------

TEST(TransportSync, DigestsHealASilentHoleInODiffFrames) {
  constexpr int kNodes4 = 4;
  constexpr int kSeeded = 30;  // the store: all nodes hold these
  constexpr int kHoles = 2;    // injected while one link eats DATA

  TransportConfig config;
  config.session.discovery = fast_discovery();
  config.session.digest_period = SimTime::from_millis(500);
  config.session.digest_buckets = 64;

  TransportWorld world(11, kNodes4, config);
  world.start();
  world.run_until(SimTime::from_millis(500));
  for (int t = 0; t < kSeeded; ++t) world.inject(0, "s" + std::to_string(t));
  world.run_until(SimTime::from_seconds(2));
  const Pattern all = Pattern::of_type(tuples::GradientTuple::kTag);
  for (int i = 0; i < kNodes4; ++i) {
    ASSERT_EQ(world.mw(i).read(all).size(),
              static_cast<std::size_t>(kSeeded));
  }

  // The silent hole: link 1→2 eats every DATA-carrying datagram while
  // two fresh tuples flood.  HELLOs keep flowing, so no link event
  // fires, no restart resync runs — in the pre-digest protocol nodes 2
  // and 3 would simply never learn these tuples existed.
  world.at(SimTime::from_seconds(2), [&] {
    world.set_drop_filter([](int from, int to, const wire::Bytes& d) {
      return from == 1 && to == 2 && carries_data(d);
    });
  });
  world.at(SimTime::from_millis(2100), [&] {
    for (int t = 0; t < kHoles; ++t) world.inject(0, "h" + std::to_string(t));
  });
  world.at(SimTime::from_seconds(3),
           [&] { world.set_drop_filter(nullptr); });
  world.run_until(SimTime::from_seconds(6));

  // Healed: the digest mismatch on the 1↔2 edge re-offered the missing
  // tuples, and node 2's normal flood carried them on to node 3.
  for (int i = 0; i < kNodes4; ++i) {
    EXPECT_EQ(world.mw(i).read(all).size(),
              static_cast<std::size_t>(kSeeded + kHoles))
        << "node " << i;
  }
  auto& m = world.hub().metrics;
  EXPECT_GT(m.get("net.sync.digest_tx"), 0);
  EXPECT_GT(m.get("net.sync.digest_rx"), 0);
  // The repair was O(diff), not O(store): across every digest round of
  // the run, fewer frames were re-sent than ONE full-store resync
  // round would ship (the hole itself, re-offered over a few rounds,
  // plus the odd same-bucket neighbour).
  EXPECT_GE(m.get("net.sync.resend"), kHoles);
  EXPECT_LT(m.get("net.sync.resend"), kSeeded);
}

// --- session-level frame accounting ----------------------------------------

TEST(NetSession, CorruptAndForeignDatagramsCountFrameBad) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::SessionOptions options;
  options.discovery = fast_discovery();
  std::vector<wire::Bytes> sent;
  net::NetSession session(
      NodeId{1}, platform, options,
      [&](wire::Bytes d) { sent.push_back(std::move(d)); }, metrics);

  session.on_raw(bytes_of({0xDE, 0xAD, 0xBE, 0xEF}));  // foreign traffic
  wire::Bytes padded = hello_batch(NodeId{2}, 1, SimTime::from_millis(100));
  padded.push_back(0x00);  // trailing garbage
  session.on_raw(padded);
  wire::Bytes truncated = sample_batch(NodeId{2});
  truncated.resize(truncated.size() / 2);
  session.on_raw(truncated);
  EXPECT_EQ(metrics.get("net.frame.bad"), 3);

  // A BATCH with an unknown future chunk kind is *skipped*, not bad.
  session.on_raw(raw_batch(NodeId{2}, {{0x77, bytes_of({1, 2})}}));
  EXPECT_EQ(metrics.get("net.frame.bad"), 3);
  EXPECT_EQ(metrics.get("net.frame.skip"), 1);

  // Our own echoes are counted once per datagram and never routed.
  session.on_raw(sample_batch(NodeId{1}));
  EXPECT_EQ(metrics.get("net.data.echo"), 1);
  EXPECT_EQ(metrics.get("net.data.rx"), 0);
}

TEST(NetSession, RetiredHelloAndDataDatagramsAreDroppedAsBad) {
  // Kinds 1 and 2 were the one-frame-per-datagram HELLO and DATA
  // envelopes.  A peer still speaking them must be dropped cleanly —
  // one net.frame.bad per datagram, no discovery or engine upcall —
  // never misread.
  tuples::register_standard_tuples();
  FakePlatform platform;
  obs::Hub hub;
  net::SessionOptions options;
  options.discovery = fast_discovery();
  net::NetSession session(
      NodeId{1}, platform, options, [](wire::Bytes) {}, hub.metrics);
  Middleware mw(NodeId{1}, platform, {}, &hub);
  session.attach(&mw);
  session.start();

  // A well-formed engine frame, as node 2's engine broadcasts it.
  FakePlatform source_platform;
  obs::Hub source_hub;
  Middleware source(NodeId{2}, source_platform, {}, &source_hub);
  source.inject(std::make_unique<tuples::GradientTuple>("old-peer"));
  ASSERT_EQ(source_platform.broadcasts.size(), 1u);
  const wire::Bytes frame = source_platform.broadcasts[0];

  const auto retired = [](std::uint8_t kind) {
    wire::Writer w;
    w.u8(net::kMagic);
    w.u8(net::kVersion);
    w.u8(kind);
    w.uvarint(2);  // sender
    return w;
  };
  wire::Writer hello = retired(1);
  hello.uvarint(5);    // beacon seq
  hello.uvarint(100);  // period, ms
  session.on_raw(hello.take());
  EXPECT_EQ(hub.metrics.get("net.frame.bad"), 1);
  EXPECT_EQ(hub.metrics.get("net.hello.rx"), 0);
  EXPECT_FALSE(session.discovery().knows(NodeId{2}));

  wire::Writer data = retired(2);
  data.raw(frame);
  session.on_raw(data.take());
  EXPECT_EQ(hub.metrics.get("net.frame.bad"), 2);
  EXPECT_EQ(hub.metrics.get("net.data.rx"), 0);
  EXPECT_EQ(mw.space().size(), 0u);

  // The same beacon and frame as BATCH chunks do get through.
  session.on_raw(hello_batch(NodeId{2}, 5, SimTime::from_millis(100)));
  const net::EncodedChunk chunk = net::Datagram::chunk_data(frame);
  session.on_raw(net::Datagram::batch(NodeId{2}, {&chunk, 1}));
  EXPECT_EQ(hub.metrics.get("net.frame.bad"), 2);
  EXPECT_TRUE(session.discovery().knows(NodeId{2}));
  EXPECT_EQ(hub.metrics.get("net.data.rx"), 1);
  EXPECT_EQ(mw.space().size(), 1u);
}

TEST(NetSession, StopQuiescesEveryTimerAndDropsPendingTraffic) {
  FakePlatform platform;
  obs::MetricsRegistry metrics;
  net::SessionOptions options;
  options.discovery = fast_discovery();
  options.reliable = true;
  std::vector<wire::Bytes> sent;
  net::NetSession session(
      NodeId{1}, platform, options,
      [&](wire::Bytes d) { sent.push_back(std::move(d)); }, metrics);

  session.start();
  platform.run_scheduled();  // the first beacon's flush goes out
  // A neighbour, so broadcast_reliable has a target to wait on and the
  // retransmit timer arms.
  session.on_raw(hello_batch(NodeId{2}, 1, SimTime::from_millis(100)));
  session.broadcast(bytes_of({1, 2, 3}));
  session.broadcast_reliable(bytes_of({4, 5, 6}));
  EXPECT_GT(session.batcher().pending(), 0u);
  EXPECT_EQ(session.reliable().in_flight(), 1u);

  const std::size_t sent_before = sent.size();
  session.stop();
  EXPECT_EQ(session.batcher().pending(), 0u);  // pending traffic dropped
  // Every armed timer — beacon, batcher flush, retransmit, neighbour
  // expiry — is cancelled: draining the schedule transmits nothing
  // (LivePlatform::stop has closed the socket by now).
  for (int i = 0; i < 8 && platform.pending_scheduled() > 0; ++i) {
    platform.run_scheduled();
  }
  EXPECT_EQ(platform.pending_scheduled(), 0u);
  EXPECT_EQ(sent.size(), sent_before);

  // A restart resumes where stop() paused: the reliable frame is still
  // unacked, so its retransmit re-arms and the next flush ships it.
  session.start();
  platform.run_scheduled();
  EXPECT_GT(session.reliable().in_flight(), 0u);
  EXPECT_GT(sent.size(), sent_before);
}

}  // namespace
}  // namespace tota
