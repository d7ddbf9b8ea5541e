// Engine anti-entropy: digest construction and digest-driven resync.
//
// The flood keeps connected neighbours consistent, but frames lost
// while a link was down (partition, discovery restart, duty-cycle gap)
// are gone for good — nothing in the propagation rule re-offers a tuple
// to a neighbour that silently missed it.  Each node therefore
// periodically publishes a StoreDigest of its *propagated* uid set (the
// tuples it would re-broadcast anyway; local-only replicas are not the
// flood's business).  A receiver diffs the digest against its own store
// at the sender's bucket count and re-broadcasts its tuples from every
// differing bucket: if the stores agree, all buckets match and nothing
// is sent; after a heal, only the buckets covering the missing tuples
// differ, so the repair traffic is O(diff), not O(store).
//
// The push is deliberately one-way and idempotent: re-sent tuples run
// the normal propagation pipeline on arrival (duplicates dedup, better
// values win, hold-downs still gate reinstalls), so a spurious bucket
// mismatch — e.g. the *sender* missing tuples the receiver holds —
// costs duplicate frames, never wrong state.  Deletions need no special
// case: a retraction the receiver missed shows up as a mismatch too,
// and the re-sent tuple either reinstalls (it is still justified
// upstream) or is refused by the hold-down and drains again.
#include "tota/engine.h"

namespace tota {

StoreDigest Engine::digest(std::uint32_t buckets) const {
  const std::vector<TupleUid> uids = space_.propagated_uids();
  return StoreDigest::build(uids, buckets);
}

int Engine::on_digest(NodeId from, const StoreDigest& remote) {
  (void)from;  // per-sender suppression would go here; push is stateless
  if (remote.buckets.empty()) return 0;
  // Registered on first use, not in EngineMetrics: worlds that never
  // exchange digests must not grow a new metric key (the committed
  // bench baselines are byte-compared).
  if (sync_resend_ == nullptr) {
    sync_resend_ = &hub_.metrics.counter("net.sync.resend");
  }
  const std::vector<TupleUid> uids = space_.propagated_uids();
  const StoreDigest local = StoreDigest::build(
      uids, static_cast<std::uint32_t>(remote.buckets.size()));
  if (local == remote) return 0;  // in sync: the common case
  int resent = 0;
  for (const TupleUid& uid : uids) {
    const std::size_t b = StoreDigest::bucket_of(uid, local.buckets.size());
    if (local.buckets[b] == remote.buckets[b]) continue;
    const TupleSpace::Entry* entry = space_.find(uid);
    if (entry == nullptr) continue;
    send_tuple(*entry->tuple);
    sync_resend_->inc();
    ++resent;
  }
  return resent;
}

}  // namespace tota
