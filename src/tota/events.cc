#include "tota/events.h"

#include <algorithm>

namespace tota {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTupleArrived:
      return "tuple_arrived";
    case EventKind::kTupleRemoved:
      return "tuple_removed";
    case EventKind::kNeighborUp:
      return "neighbor_up";
    case EventKind::kNeighborDown:
      return "neighbor_down";
  }
  return "?";
}

namespace {
const bool kPresenceRegistered = [] {
  register_tuple_type<PresenceTuple>(PresenceTuple::kTag);
  return true;
}();
}  // namespace

PresenceTuple::PresenceTuple(NodeId neighbor, bool up) {
  content().set("event", up ? "up" : "down").set("node", neighbor);
}

const char* to_string(QueryDelta::Kind kind) {
  switch (kind) {
    case QueryDelta::Kind::kAdded:
      return "added";
    case QueryDelta::Kind::kUpdated:
      return "updated";
    case QueryDelta::Kind::kRemoved:
      return "removed";
  }
  return "?";
}

BusMetrics::BusMetrics(obs::MetricsRegistry& registry)
    : publish(registry.counter("bus.publish")),
      candidates(registry.counter("bus.dispatch.candidates")),
      fired(registry.counter("bus.dispatch.fired")),
      skipped_dead(registry.counter("bus.dispatch.skipped_dead")),
      cq_evals(registry.counter("bus.cq.evals")),
      cq_added(registry.counter("bus.cq.added")),
      cq_updated(registry.counter("bus.cq.updated")),
      cq_removed(registry.counter("bus.cq.removed")) {}

void EventBus::bind_metrics(obs::MetricsRegistry& registry) {
  metrics_ = std::make_unique<BusMetrics>(registry);
}

EventBus::BucketKey EventBus::key_of(const Subscription& sub) {
  return BucketKey{sub.kind_filter, sub.pattern.type_tag().value_or("")};
}

SubscriptionId EventBus::subscribe(Pattern pattern, Reaction reaction,
                                   int kind_filter) {
  const SubscriptionId id = next_id_++;
  const auto [it, inserted] = subscriptions_.emplace(
      id, Subscription{id, std::move(pattern), std::move(reaction),
                       kind_filter});
  buckets_[key_of(it->second)].push_back(id);
  live_.insert(id);
  return id;
}

void EventBus::drop(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return;
  const auto bucket = buckets_.find(key_of(it->second));
  if (bucket != buckets_.end()) {
    std::erase(bucket->second, id);
    if (bucket->second.empty()) buckets_.erase(bucket);
  }
  live_.erase(id);
  subscriptions_.erase(it);
}

void EventBus::unsubscribe(SubscriptionId id) { drop(id); }

void EventBus::unsubscribe(const Pattern& pattern) {
  std::vector<SubscriptionId> doomed;
  for (const auto& [id, sub] : subscriptions_) {
    if (sub.pattern.equivalent(pattern)) doomed.push_back(id);
  }
  for (const SubscriptionId id : doomed) drop(id);
}

void EventBus::collect(const BucketKey& key,
                       std::vector<SubscriptionId>& out) const {
  const auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  out.insert(out.end(), it->second.begin(), it->second.end());
}

void EventBus::publish(const Event& event) {
  if (metrics_ != nullptr) metrics_->publish.inc();
  // The four buckets this event can match; a subscription lives in
  // exactly one bucket, so the union is duplicate-free.
  const int kind = static_cast<int>(event.kind);
  const std::string tag = event.tuple->type_tag();
  std::vector<SubscriptionId> candidates;
  collect(BucketKey{kind, tag}, candidates);
  collect(BucketKey{kind, std::string{}}, candidates);
  collect(BucketKey{kAnyKind, tag}, candidates);
  collect(BucketKey{kAnyKind, std::string{}}, candidates);
  // Dispatch order is subscription order == id order.
  std::sort(candidates.begin(), candidates.end());

  // Snapshot ids + reactions so reentrant (un)subscription is safe.
  std::vector<std::pair<SubscriptionId, Reaction>> to_run;
  for (const SubscriptionId id : candidates) {
    const Subscription& sub = subscriptions_.find(id)->second;
    if (metrics_ != nullptr) metrics_->candidates.inc();
    if (sub.pattern.matches(*event.tuple)) {
      to_run.emplace_back(id, sub.reaction);
    }
  }
  for (auto& [id, reaction] : to_run) {
    // Skip reactions unsubscribed by an earlier reaction in this batch.
    if (!live_.contains(id)) {
      if (metrics_ != nullptr) metrics_->skipped_dead.inc();
      continue;
    }
    if (metrics_ != nullptr) metrics_->fired.inc();
    reaction(event);
  }
}

QueryId EventBus::subscribe_query(Pattern pattern, QueryCallback on_delta) {
  const QueryId id = next_query_id_++;
  const std::string bucket = pattern.type_tag().value_or("");
  queries_.emplace(
      id, ContinuousQuery{id, std::move(pattern), std::move(on_delta), {}});
  query_buckets_[bucket].push_back(id);
  live_queries_.insert(id);
  return id;
}

void EventBus::unsubscribe_query(QueryId id) {
  const auto it = queries_.find(id);
  if (it == queries_.end()) return;
  const std::string bucket = it->second.pattern.type_tag().value_or("");
  const auto bucket_it = query_buckets_.find(bucket);
  if (bucket_it != query_buckets_.end()) {
    std::erase(bucket_it->second, id);
    if (bucket_it->second.empty()) query_buckets_.erase(bucket_it);
  }
  live_queries_.erase(id);
  queries_.erase(it);
}

void EventBus::evaluate_query(ContinuousQuery& q, bool erased,
                              const TupleSpace::Entry& entry, SimTime now) {
  if (metrics_ != nullptr) metrics_->cq_evals.inc();
  const Tuple& tuple = *entry.tuple;
  const TupleUid uid = tuple.uid();
  const bool member = q.members.contains(uid);
  const bool matches =
      !erased && q.pattern.matches_record(entry.type_tag, tuple.content());
  if (matches == member && !matches) return;  // non-member stays out

  // Membership mutates before the callback and `q` is never touched
  // after it: the callback may unsubscribe this very query.
  QueryDelta delta{QueryDelta::Kind::kUpdated, &tuple, now};
  if (matches && !member) {
    q.members.insert(uid);
    delta.kind = QueryDelta::Kind::kAdded;
  } else if (!matches && member) {
    q.members.erase(uid);
    delta.kind = QueryDelta::Kind::kRemoved;
  }
  if (metrics_ != nullptr) {
    switch (delta.kind) {
      case QueryDelta::Kind::kAdded:
        metrics_->cq_added.inc();
        break;
      case QueryDelta::Kind::kUpdated:
        metrics_->cq_updated.inc();
        break;
      case QueryDelta::Kind::kRemoved:
        metrics_->cq_removed.inc();
        break;
    }
  }
  const QueryCallback on_delta = q.on_delta;  // survives self-unsubscribe
  on_delta(delta);
}

void EventBus::seed_query(QueryId id, const TupleSpace::Entry& entry,
                          SimTime now) {
  const auto it = queries_.find(id);
  if (it == queries_.end()) return;
  evaluate_query(it->second, /*erased=*/false, entry, now);
}

void EventBus::notify_space(TupleSpace::ChangeKind change,
                            const TupleSpace::Entry& entry, SimTime now) {
  if (queries_.empty()) return;
  // Only queries bucketed on this tag (or untyped) can change — copied,
  // because a callback may (un)subscribe and reshape the buckets.
  std::vector<QueryId> ids;
  for (const std::string& bucket : {entry.type_tag, std::string{}}) {
    const auto it = query_buckets_.find(bucket);
    if (it != query_buckets_.end()) {
      ids.insert(ids.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(ids.begin(), ids.end());
  const bool erased = change == TupleSpace::ChangeKind::kErased;
  for (const QueryId id : ids) {
    if (!live_queries_.contains(id)) continue;
    const auto it = queries_.find(id);
    if (it == queries_.end()) continue;
    evaluate_query(it->second, erased, entry, now);
  }
}

}  // namespace tota
