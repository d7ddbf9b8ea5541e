// The propagation pipeline (steps 0–7 in engine.h) and the send path.
// Receive/decode lives in engine_rx.cc; topology-change repair in
// engine_maintenance.cc.
#include "tota/engine.h"

#include "common/logging.h"

namespace tota {

Engine::Engine(NodeId self, Platform& platform, TupleSpace& space,
               EventBus& bus, MaintenanceOptions maintenance, obs::Hub* hub)
    : self_(self),
      platform_(platform),
      space_(space),
      bus_(bus),
      maintenance_(maintenance),
      hub_(hub != nullptr ? *hub : obs::default_hub()),
      metrics_(hub_.metrics),
      seen_passthrough_(kPassthroughMemory),
      repair_pending_(kPassthroughMemory) {}

Engine::~Engine() {
  // Recurring maintenance timers (hold-down expiries, coalesced
  // re-propagation) capture `this`; cancel the survivors so a platform
  // that outlives the engine (live event loop) cannot fire them into a
  // destroyed object.  In the simulator, despawning a node also cancels
  // every timer it still has pending, so there this is belt-and-braces.
  for (const Platform::TimerId id : live_timers_) platform_.cancel(id);
}

void Engine::schedule_owned(SimTime delay, std::function<void()> action) {
  // The callback needs its own id to retire it from live_timers_, but the
  // id only exists after schedule() returns; the shared slot bridges the
  // gap (schedule never runs the action synchronously).
  auto slot = std::make_shared<Platform::TimerId>(Platform::kInvalidTimer);
  const Platform::TimerId id = platform_.schedule(
      delay, [this, slot, action = std::move(action)] {
        live_timers_.erase(*slot);
        action();
      });
  *slot = id;
  live_timers_.insert(id);
}

void Engine::trace(obs::Stage stage, const TupleUid& uid, int hop) {
  hub_.tracer.record(platform_.now(), self_, stage, uid, hop);
}

Context Engine::make_context(NodeId from, int hop) const {
  auto* self = const_cast<Engine*>(this);  // SpaceOps is deliberately mutable
  return Context{self_,
                 from,
                 hop,
                 platform_.now(),
                 platform_.position(),
                 space_,
                 platform_.rng(),
                 self};
}

std::vector<TupleHandle> Engine::take_local(const Pattern& pattern) {
  auto removed = space_.take(pattern);
  for (const auto& tuple : removed) {
    bus_.publish(
        Event{EventKind::kTupleRemoved, tuple.get(), platform_.now()});
  }
  return removed;
}

TupleUid Engine::inject(std::unique_ptr<Tuple> tuple) {
  const TupleUid uid{self_, next_sequence_++};
  tuple->set_uid(uid);
  tuple->set_hop(0);
  metrics_.inject.inc();
  trace(obs::Stage::kInject, uid, 0);
  const TupleSpace::Entry* existing = space_.find(uid);
  if (!is_duplicate(existing, 0)) process(std::move(tuple), self_, existing);
  return uid;
}

bool Engine::is_duplicate(const TupleSpace::Entry* existing, int hop) {
  if (existing == nullptr || existing->tuple->superseded_by(hop)) {
    return false;
  }
  metrics_.drop_duplicate.inc();
  return true;  // duplicate or worse copy; the stored structure stands
}

void Engine::process(std::unique_ptr<Tuple> tuple, NodeId from,
                     const TupleSpace::Entry* existing) {
  const Context ctx = make_context(from, tuple->hop());
  if (!tuple->decide_enter(ctx)) {  // step 1
    metrics_.drop_enter.inc();
    return;
  }
  tuple->change_content(ctx);  // step 2

  const TupleUid uid = tuple->uid();
  const bool local = from == self_;

  // Step 3: repeat filters.
  if (!local && tuple->maintained() &&
      hold_down_.blocks(uid, tuple->hop(), platform_.now())) {
    // Recently retracted at a value this copy does not beat: wait out the
    // hold-down instead of re-seeding a possibly-orphaned region.  The
    // PROBE at expiry pulls the value back in if a real holder survives.
    metrics_.drop_holddown.inc();
    return;
  }

  const bool store = tuple->decide_store(ctx);  // step 4
  const bool propagate = tuple->decide_propagate(ctx);

  if (!store && existing == nullptr) {
    // Pass-through tuples keep no replica to deduplicate against, so the
    // engine remembers their uids: each flows through a node once.
    if (!seen_passthrough_.insert(uid)) {
      metrics_.drop_passthrough.inc();
      return;
    }
  }

  tuple->apply_effects(ctx);  // step 5

  // The copy is final now.  A stored copy becomes the shared replica, and
  // this handle keeps it alive and unchanged for steps 6 and 7 even if a
  // reaction replaces or removes the replica reentrantly.
  TupleHandle replica;
  if (store) {
    // Replicas of non-maintained tuples record no upstream dependency, so
    // link loss never retracts them (a delivered message outlives its
    // path).
    const NodeId parent =
        (local || !tuple->maintained()) ? NodeId{} : from;
    replica = std::move(tuple);
    space_.put(replica, parent, propagate, platform_.now());
    hold_down_.disarm(uid);  // a strictly better value ends the hold early
    metrics_.store.inc();
    trace(obs::Stage::kStore, uid, replica->hop());
    record_repair(uid);
  } else if (existing != nullptr) {
    // An update talked the rule out of storing here (e.g. the content
    // moved out of the tuple's spatial scope): retire the stale replica.
    auto removed = space_.erase(uid);
    metrics_.retire.inc();
    bus_.publish(
        Event{EventKind::kTupleRemoved, removed.get(), platform_.now()});
  }

  const Tuple& copy = replica != nullptr ? *replica : *tuple;
  // Step 6: publish.
  bus_.publish(Event{EventKind::kTupleArrived, &copy, platform_.now()});

  if (propagate) send_tuple(copy);  // step 7
}

void Engine::send_tuple(const Tuple& tuple) {
  wire::Bytes frame = wire::Frame::tuple(
      [&tuple](wire::Writer& w) { tuple.encode(w); }, frame_size_hint_);
  if (frame.size() > frame_size_hint_) frame_size_hint_ = frame.size();
  metrics_.propagate.inc();
  trace(obs::Stage::kPropagate, tuple.uid(), tuple.hop());
  platform_.broadcast(std::move(frame));
}

}  // namespace tota
