#include "net/datagram.h"

#include <stdexcept>
#include <utility>

namespace tota::net {

namespace {

/// Whole milliseconds on the wire; sub-millisecond periods round up so
/// the advertised value stays positive (decode rejects 0).
std::uint64_t period_ms(SimTime period) {
  const double ms = period.millis();
  return ms < 1.0 ? 1 : static_cast<std::uint64_t>(ms);
}

SimTime decode_period(wire::Reader& r) {
  const SimTime period =
      SimTime::from_millis(static_cast<double>(r.uvarint()));
  if (period <= SimTime::zero()) {
    throw wire::DecodeError("HELLO with non-positive period");
  }
  return period;
}

/// Parses one chunk body into `c` (kind already set).  `body` is the
/// exact chunk extent; every grammar consumes it to the last byte
/// except DATA/REL/DIGEST payloads, which are the remainder by
/// definition.
void decode_chunk(Chunk& c, std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  switch (c.kind) {
    case ChunkKind::kHello:
      c.seq = r.uvarint();
      c.period = decode_period(r);
      r.expect_done();
      return;
    case ChunkKind::kData:
      if (body.empty()) throw wire::DecodeError("empty DATA chunk");
      c.payload = body;
      return;
    case ChunkKind::kRel: {
      c.seq = r.uvarint();
      const std::uint64_t floor_delta = r.uvarint();
      if (floor_delta > c.seq) {
        throw wire::DecodeError("REL floor above its own seq");
      }
      c.floor = c.seq - floor_delta;
      if (r.remaining() == 0) throw wire::DecodeError("empty REL frame");
      c.payload = body.subspan(body.size() - r.remaining());
      return;
    }
    case ChunkKind::kAck:
      c.peer = NodeId{r.uvarint()};
      if (!c.peer.valid()) throw wire::DecodeError("ACK without peer");
      c.cum = r.uvarint();
      r.expect_done();
      return;
    case ChunkKind::kDigest:
      if (body.empty()) throw wire::DecodeError("empty DIGEST chunk");
      c.payload = body;
      return;
  }
  throw wire::DecodeError("unreachable chunk kind");  // kept for safety
}

}  // namespace

BatchReader::BatchReader(std::span<const std::uint8_t> bytes) : r_(bytes) {
  if (r_.u8() != kMagic) throw wire::DecodeError("not a TOTA datagram");
  if (r_.u8() != kVersion) {
    throw wire::DecodeError("datagram version mismatch");
  }
  if (r_.u8() != static_cast<std::uint8_t>(DatagramKind::kBatch)) {
    throw wire::DecodeError("unknown datagram kind");
  }
  sender_ = NodeId{r_.uvarint()};
  if (!sender_.valid()) throw wire::DecodeError("datagram without sender");
  left_ = r_.uvarint();
  if (left_ == 0) throw wire::DecodeError("empty BATCH");
  if (left_ > kMaxBatchChunks) {
    throw wire::DecodeError("BATCH chunk count over the cap");
  }
}

bool BatchReader::next(Chunk& c) {
  while (left_ > 0) {
    --left_;
    const auto ckind = r_.u8();
    const std::uint64_t clen = r_.uvarint();
    if (clen > r_.remaining()) {
      throw wire::DecodeError("truncated BATCH chunk");
    }
    const auto body = r_.span(static_cast<std::size_t>(clen));
    if (ckind < 1 || ckind > static_cast<std::uint8_t>(ChunkKind::kDigest)) {
      ++skipped_;  // a future chunk kind: skippable by design
      continue;
    }
    c = Chunk{};
    c.kind = static_cast<ChunkKind>(ckind);
    decode_chunk(c, body);
    return true;
  }
  r_.expect_done();  // trailing garbage is corruption, not padding
  return false;
}

wire::Bytes Datagram::batch(NodeId sender,
                            std::span<const EncodedChunk> chunks) {
  if (chunks.empty() || chunks.size() > kMaxBatchChunks) {
    throw std::invalid_argument("Datagram::batch: bad chunk count");
  }
  std::size_t size = batch_overhead(sender);
  for (const auto& c : chunks) size += c.wire_size();
  wire::Writer w;
  w.reserve(size);
  w.u8(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(DatagramKind::kBatch));
  w.uvarint(sender.value());
  w.uvarint(chunks.size());
  for (const auto& c : chunks) {
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.uvarint(c.body.size());
    w.raw(c.body);
  }
  return w.take();
}

EncodedChunk Datagram::chunk_hello(std::uint64_t seq, SimTime period) {
  wire::Writer w;
  w.uvarint(seq);
  w.uvarint(period_ms(period));
  return {ChunkKind::kHello, w.take()};
}

EncodedChunk Datagram::chunk_data(std::span<const std::uint8_t> frame) {
  return {ChunkKind::kData, wire::Bytes(frame.begin(), frame.end())};
}

EncodedChunk Datagram::chunk_rel(std::uint64_t seq, std::uint64_t floor,
                                 std::span<const std::uint8_t> frame) {
  wire::Writer w;
  w.reserve(20 + frame.size());
  w.uvarint(seq);
  w.uvarint(seq - floor);
  w.raw(frame);
  return {ChunkKind::kRel, w.take()};
}

EncodedChunk Datagram::chunk_ack(NodeId peer, std::uint64_t cum) {
  wire::Writer w;
  w.uvarint(peer.value());
  w.uvarint(cum);
  return {ChunkKind::kAck, w.take()};
}

EncodedChunk Datagram::chunk_digest(wire::Bytes digest_body) {
  return {ChunkKind::kDigest, std::move(digest_body)};
}

}  // namespace tota::net
