#include "tota/digest.h"

#include <algorithm>

namespace tota {

namespace {

/// splitmix64 finalizer — full-avalanche 64-bit mix.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t StoreDigest::mix(const TupleUid& uid) {
  // Mix the origin first so (node 1, seq 2) and (node 2, seq 1) land
  // far apart before the final avalanche.
  return splitmix64(splitmix64(uid.origin().value()) ^ uid.sequence());
}

std::size_t StoreDigest::bucket_of(const TupleUid& uid,
                                   std::size_t bucket_count) {
  return static_cast<std::size_t>(mix(uid) % bucket_count);
}

StoreDigest StoreDigest::build(std::span<const TupleUid> uids,
                               std::uint32_t bucket_count) {
  if (bucket_count == 0) bucket_count = 1;
  if (bucket_count > kMaxDigestBuckets) bucket_count = kMaxDigestBuckets;
  StoreDigest d;
  d.buckets.assign(bucket_count, 0);
  for (const TupleUid& uid : uids) d.add(uid);
  return d;
}

void StoreDigest::add(const TupleUid& uid) {
  buckets[bucket_of(uid, buckets.size())] ^= mix(uid);
  ++count;
}

wire::Bytes StoreDigest::encode() const {
  const auto nonzero = static_cast<std::size_t>(std::count_if(
      buckets.begin(), buckets.end(), [](std::uint64_t b) { return b != 0; }));
  wire::Writer w;
  w.reserve(15 + 10 * nonzero);
  w.uvarint(buckets.size());
  w.uvarint(count);
  w.uvarint(nonzero);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    w.uvarint(i);
    w.u64(buckets[i]);
  }
  return w.take();
}

StoreDigest StoreDigest::decode(std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  const std::uint64_t bucket_count = r.uvarint();
  if (bucket_count == 0) throw wire::DecodeError("digest without buckets");
  if (bucket_count > kMaxDigestBuckets) {
    throw wire::DecodeError("digest bucket count over the cap");
  }
  StoreDigest d;
  d.count = r.uvarint();
  const std::uint64_t nonzero = r.uvarint();
  if (nonzero > bucket_count) {
    throw wire::DecodeError("digest with more entries than buckets");
  }
  d.buckets.assign(static_cast<std::size_t>(bucket_count), 0);
  std::uint64_t next = 0;  // lowest index the next entry may use
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    const std::uint64_t index = r.uvarint();
    if (index < next) throw wire::DecodeError("digest indexes not ascending");
    if (index >= bucket_count) {
      throw wire::DecodeError("digest index out of range");
    }
    const std::uint64_t hash = r.u64();
    if (hash == 0) throw wire::DecodeError("digest entry with a zero hash");
    d.buckets[static_cast<std::size_t>(index)] = hash;
    next = index + 1;
  }
  r.expect_done();
  return d;
}

}  // namespace tota
