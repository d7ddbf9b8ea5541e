// StoreDigest — a compact, order-independent summary of a node's
// propagated tuple set, for per-neighbour anti-entropy.
//
// After a partition heals (or a node restarts discovery), two
// neighbours may silently disagree about which tuples exist: frames
// lost during the outage are never retransmitted by the flood itself.
// Rebroadcasting the whole store on every neighbour-up is O(store);
// instead each node periodically ships this digest and a receiver
// re-sends only the tuples falling into buckets whose hashes differ —
// O(diff) frames in expectation.
//
// The digest hashes *uids only*, never hop values: hop counts
// legitimately differ between nodes (that is the gradient), so two
// perfectly synchronized stores would never agree on a hop-sensitive
// digest.  Each uid is mixed through splitmix64 and XOR-folded into
// `buckets[mix % buckets.size()]`; XOR makes the fold order-independent
// and incremental-friendly, and the mix keeps sequential sequence
// numbers from clustering in adjacent buckets.
//
// Wire format (body of a DIGEST chunk), sparse — only non-zero buckets
// travel, so a near-empty store costs a few bytes, not 8 per bucket:
//   bucket_count   uvarint   1..kMaxDigestBuckets
//   tuple_count    uvarint   informational (sizing resyncs, metrics)
//   nonzero_count  uvarint   0..bucket_count
//   nonzero_count × (index uvarint, hash u64 little-endian)
//                            strictly ascending index < bucket_count,
//                            hash != 0 (an absent bucket is zero)
// There is exactly one encoding of each digest: the decoder rejects
// out-of-order, duplicate or out-of-range indexes and explicit zeros,
// so encode(decode(x)) == x.
//
// Comparing digests with different bucket_counts is meaningless; the
// receiver rebuilds its own digest at the sender's bucket_count before
// diffing (Engine::on_digest).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "wire/buffer.h"

namespace tota {

inline constexpr std::uint32_t kMaxDigestBuckets = 4096;

struct StoreDigest {
  std::uint64_t count = 0;  // tuples folded in
  std::vector<std::uint64_t> buckets;

  /// The canonical 64-bit mix of a uid (splitmix64 over a combination
  /// of origin and sequence).  Exposed so resync can recompute a
  /// tuple's bucket without building a full digest.
  static std::uint64_t mix(const TupleUid& uid);

  /// Bucket index of `uid` in a digest with `bucket_count` buckets.
  static std::size_t bucket_of(const TupleUid& uid,
                               std::size_t bucket_count);

  /// Builds a digest of `uids` with `bucket_count` buckets (clamped to
  /// [1, kMaxDigestBuckets]).
  static StoreDigest build(std::span<const TupleUid> uids,
                           std::uint32_t bucket_count);

  /// Folds one more uid in (XOR: also removes a previously added uid).
  void add(const TupleUid& uid);

  [[nodiscard]] wire::Bytes encode() const;
  /// Throws wire::DecodeError on malformed input (zero or oversized
  /// bucket count, a bucket entry breaking the rules above, truncation,
  /// trailing bytes).
  static StoreDigest decode(std::span<const std::uint8_t> bytes);

  friend bool operator==(const StoreDigest&, const StoreDigest&) = default;
};

}  // namespace tota
