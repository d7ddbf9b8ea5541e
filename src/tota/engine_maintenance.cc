// Topology-change repair: link-up re-propagation, value-justification
// retraction, RETRACT/PROBE handling, and repair-latency tracking.  The
// mechanism essay lives in engine.h; the policy knobs in maintenance.h.
#include <algorithm>

#include "tota/engine.h"

namespace tota {

void Engine::on_neighbor_up(NodeId neighbor) {
  const auto it =
      std::lower_bound(neighbors_.begin(), neighbors_.end(), neighbor);
  if (it != neighbors_.end() && *it == neighbor) return;
  neighbors_.insert(it, neighbor);

  if (!maintenance_.repropagate_on_link_up) return;
  // Debounced: several links appearing at the same instant (a node joining
  // a dense area) trigger one re-propagation round, not one per link.
  if (repropagation_pending_) return;
  repropagation_pending_ = true;
  schedule_owned(SimTime::zero(), [this] {
    repropagation_pending_ = false;
    for (const TupleUid& uid : space_.propagated_uids()) {
      const auto* entry = space_.find(uid);
      if (entry == nullptr) continue;
      if (uid.origin() == self_ && entry->tuple->hop() == 0) {
        // Source replica: the node may have moved since injection, so
        // position-dependent content (advert locations, spatial origins)
        // is re-evaluated at hop 0 before re-announcing.
        auto fresh = entry->tuple->clone();
        fresh->change_content(make_context(self_, 0));
        if (!(fresh->content() == entry->tuple->content())) {
          send_tuple(*fresh);
          space_.put(std::move(fresh), NodeId{}, true, platform_.now());
        } else {
          send_tuple(*entry->tuple);
        }
      } else {
        send_tuple(*entry->tuple);
      }
      metrics_.maint_link_up_reprop.inc();
    }
  });
}

void Engine::on_neighbor_down(NodeId neighbor) {
  const auto it =
      std::lower_bound(neighbors_.begin(), neighbors_.end(), neighbor);
  if (it != neighbors_.end() && *it == neighbor) neighbors_.erase(it);

  if (!maintenance_.retract_on_link_down) return;
  // Everything we knew the departed neighbour held is gone; replicas that
  // relied on those values for justification must go too.
  for (const TupleUid& uid : neighbor_values_.forget_neighbor(neighbor)) {
    if (const auto* entry = space_.find(uid)) {
      recheck(*entry, /*cascaded=*/false);
    }
  }
}

bool Engine::justified(const TupleSpace::Entry& entry) const {
  const TupleUid uid = entry.tuple->uid();
  if (!entry.tuple->maintained()) return true;
  if (uid.origin() == self_) return true;  // the source carries its own
  return neighbor_values_.supports(uid, entry.tuple->hop());
}

bool Engine::recheck(const TupleSpace::Entry& entry, bool cascaded) {
  if (justified(entry)) return false;
  retract_local(entry, cascaded);
  return true;
}

void Engine::retract_local(const TupleSpace::Entry& entry, bool cascaded) {
  // Copied out first: erasing the replica destroys `entry`.
  const TupleUid uid = entry.tuple->uid();
  const int removed_hop = entry.tuple->hop();

  auto removed = space_.erase(uid);
  if (cascaded) {
    metrics_.maint_retract_cascaded.inc();
  } else {
    metrics_.maint_retract_started.inc();
  }
  trace(obs::Stage::kRetract, uid, removed_hop);
  note_repair_pending(uid);
  bus_.publish(
      Event{EventKind::kTupleRemoved, removed.get(), platform_.now()});

  // Arm the hold-down and schedule the expiry probe.  A newer retraction
  // may re-arm before this one expires; HoldDownTable::expire checks.
  hold_down_.arm(uid, platform_.now() + maintenance_.hold_down, removed_hop);
  schedule_owned(maintenance_.hold_down, [this, uid] {
    if (!hold_down_.expire(uid, platform_.now())) return;
    platform_.broadcast_reliable(wire::Frame::probe(uid));
    metrics_.maint_probe_tx.inc();
    trace(obs::Stage::kProbe, uid, /*hop=*/-1);
  });

  // A lost RETRACT is the one frame the flood cannot heal on its own:
  // the stale replica stays justified forever.  Platforms with a
  // reliable channel upgrade this to at-least-once delivery.
  platform_.broadcast_reliable(wire::Frame::retract(uid, removed_hop));
}

void Engine::handle_probe(const TupleUid& uid) {
  const auto* entry = space_.find(uid);
  if (entry == nullptr || !entry->propagated) return;
  if (!justified(*entry)) return;  // don't feed a drain in progress
  send_tuple(*entry->tuple);
  metrics_.maint_probe_answer.inc();
  trace(obs::Stage::kHeal, uid, entry->tuple->hop());
}

void Engine::handle_retract(NodeId from, const TupleUid& uid) {
  // The retracting neighbour no longer holds the tuple; keep the row
  // alive only while a local replica could still be justified by it.
  neighbor_values_.forget(uid, from, /*retain_row=*/space_.find(uid) != nullptr);
  if (!maintenance_.retract_on_link_down) return;

  const auto* entry = space_.find(uid);
  if (entry == nullptr) return;
  if (!justified(*entry)) {
    // Our support chain ran through the retracting neighbour: cascade.
    retract_local(*entry, /*cascaded=*/true);
    return;
  }
  // Our replica is independently supported: answer by re-announcing it,
  // which rebuilds correct values in the orphaned region.
  if (entry->propagated) {
    send_tuple(*entry->tuple);
    metrics_.maint_heal_reprop.inc();
    trace(obs::Stage::kHeal, uid, entry->tuple->hop());
  }
}

void Engine::note_repair_pending(const TupleUid& uid) {
  // Keep the *first* retraction instant: the structure has been wrong
  // since then, so a re-retraction during an ongoing repair must not
  // reset the clock.  Bounded (BoundedUidFifo) because a tuple whose
  // region drains for good never reinstalls.
  repair_pending_.insert(uid, platform_.now());
}

void Engine::record_repair(const TupleUid& uid) {
  const SimTime* retracted_at = repair_pending_.find(uid);
  if (retracted_at == nullptr) return;
  metrics_.repair_ms.record((platform_.now() - *retracted_at).millis());
  repair_pending_.erase(uid);
}

}  // namespace tota
