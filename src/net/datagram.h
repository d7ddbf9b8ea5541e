// The UDP datagram envelope — what one live TOTA process puts into a
// socket (grammar: docs/NET.md).
//
// The simulator hands engines pre-attributed frames (`on_datagram(from,
// …)` — the radio knows who transmitted); a real UDP socket does not, so
// every live datagram carries its own sender identity.  There is one
// datagram kind, BATCH (kind byte 0x03): a list of chunks — engine
// frames, discovery beacons, reliable-channel frames and acks,
// anti-entropy digests — packed into one datagram (net/batch.h).
// Kinds 0x01 and 0x02 were the retired one-frame-per-datagram HELLO and
// DATA envelopes; they now decode as "unknown datagram kind", so a peer
// still speaking them is counted net.frame.bad and never misread.
//
// A DATA chunk's body is exactly what Platform::broadcast was given, so
// the engine/wire layers never learn whether they run on the simulator
// or on sockets.  Decoding is total: malformed or foreign datagrams
// (wrong magic, unknown version/kind, truncation, trailing garbage)
// throw wire::DecodeError and are counted + dropped by the receiver,
// never UB — a UDP port is open to arbitrary garbage.
//
// BATCH grammar (after the magic/version/kind/sender header):
//
//   count   uvarint        number of chunks, >= 1
//   count × chunk:
//     ckind u8             ChunkKind below
//     clen  uvarint        body length in bytes
//     body  clen bytes     chunk-kind specific
//
// Chunks are length-prefixed so a decoder can *skip* a chunk kind it
// does not know (forward compatibility within version 1 of the BATCH
// envelope; skipped chunks are surfaced via Datagram::skipped).
//
// Chunk bodies:
//   HELLO  <seq uvarint, period_ms uvarint>      discovery beacon
//   DATA   <engine frame, verbatim>              one engine broadcast
//   REL    <seq uvarint, seq-floor uvarint,      reliable-ordered frame
//           engine frame, verbatim>              (net/reliable.h); floor
//                                                is the lowest seq the
//                                                sender still guarantees
//                                                to retransmit
//   ACK    <peer uvarint, cum uvarint>           "this datagram's sender
//                                                has delivered peer's
//                                                reliable stream through
//                                                seq cum"
//   DIGEST <store digest, opaque>                anti-entropy tuple-set
//                                                summary (tota/digest.h
//                                                — the envelope layer
//                                                does not parse it)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "wire/buffer.h"

namespace tota::net {

/// First byte of every TOTA datagram; anything else is foreign traffic.
inline constexpr std::uint8_t kMagic = 0xA7;
/// Bumped on any incompatible envelope change.
inline constexpr std::uint8_t kVersion = 1;

/// The envelope kind byte; BATCH is the only kind (see above).
enum class DatagramKind : std::uint8_t { kBatch = 3 };

enum class ChunkKind : std::uint8_t {
  kHello = 1,
  kData = 2,
  kRel = 3,
  kAck = 4,
  kDigest = 5,
};

/// One decoded chunk of a BATCH datagram.  Span fields view into the
/// buffer decode() was called on and are valid only while it lives.
struct Chunk {
  ChunkKind kind = ChunkKind::kData;
  /// kHello: beacon seq.  kRel: reliable-channel seq.
  std::uint64_t seq = 0;
  /// kHello: advertised beacon period.
  SimTime period;
  /// kRel: lowest seq the sender still retransmits (<= seq).
  std::uint64_t floor = 0;
  /// kAck: whose stream is being acknowledged / cumulative seq.
  NodeId peer;
  std::uint64_t cum = 0;
  /// kData / kRel: the engine frame.  kDigest: the encoded digest.
  std::span<const std::uint8_t> payload;
};

/// An already-encoded chunk, ready for packing (net/batch.h builds
/// these; Datagram::batch frames them).
struct EncodedChunk {
  ChunkKind kind = ChunkKind::kData;
  wire::Bytes body;

  /// On-the-wire size of this chunk: kind byte + length prefix + body.
  [[nodiscard]] std::size_t wire_size() const {
    return 1 + wire::uvarint_size(body.size()) + body.size();
  }
};

/// Most chunks one BATCH datagram may carry.  Capped below 128 so the
/// count varint is always one byte (batch_overhead stays a constant)
/// and a hostile count cannot make a decoder pre-commit unbounded work.
inline constexpr std::size_t kMaxBatchChunks = 127;

/// A decoded BATCH datagram.  Chunk payloads view into the buffer
/// decode() was called on and are valid only while it lives.
struct Datagram {
  /// Who sent this datagram (the live stand-in for the radio's
  /// transmitter attribution).
  NodeId sender;
  /// The decoded chunks, in wire order (unknown kinds omitted).
  std::vector<Chunk> chunks;
  /// Chunks whose kind this decoder did not know and skipped over
  /// (forward compatibility; receivers count these).
  std::size_t skipped = 0;

  /// Parses an envelope; throws wire::DecodeError on anything that is
  /// not a well-formed TOTA datagram.
  static Datagram decode(std::span<const std::uint8_t> bytes);

  /// Frames `chunks` (1..kMaxBatchChunks of them) into one BATCH
  /// datagram.
  static wire::Bytes batch(NodeId sender,
                           std::span<const EncodedChunk> chunks);

  /// Fixed per-BATCH-datagram overhead for `sender`: header plus the
  /// (single-byte — see kMaxBatchChunks) chunk count.
  [[nodiscard]] static std::size_t batch_overhead(NodeId sender) {
    return 3 + wire::uvarint_size(sender.value()) + 1;
  }

  // --- chunk body builders (the inverse of the Chunk fields) -----------
  static EncodedChunk chunk_hello(std::uint64_t seq, SimTime period);
  static EncodedChunk chunk_data(std::span<const std::uint8_t> frame);
  static EncodedChunk chunk_rel(std::uint64_t seq, std::uint64_t floor,
                                std::span<const std::uint8_t> frame);
  static EncodedChunk chunk_ack(NodeId peer, std::uint64_t cum);
  static EncodedChunk chunk_digest(wire::Bytes digest_body);
};

}  // namespace tota::net
