#include "tota/middleware.h"

namespace tota {

Middleware::Middleware(NodeId self, Platform& platform,
                       MaintenanceOptions maintenance, obs::Hub* hub)
    : platform_(platform),
      engine_(self, platform, space_, bus_, maintenance, hub) {
  // The space/bus record their space.*/bus.* instruments next to the
  // engine's, on the same hub.
  obs::Hub& h = hub != nullptr ? *hub : obs::default_hub();
  space_.bind_metrics(h.metrics);
  bus_.bind_metrics(h.metrics);
  // Every store mutation feeds the bus's continuous queries (O(1) when
  // none are registered).
  space_.set_listener(
      [this](TupleSpace::ChangeKind kind, const TupleSpace::Entry& entry) {
        bus_.notify_space(kind, entry, platform_.now());
      });
}

TupleUid Middleware::inject(std::unique_ptr<Tuple> tuple) {
  return engine_.inject(std::move(tuple));
}

std::vector<TupleHandle> Middleware::read(const Pattern& pattern) const {
  return space_.read(pattern);
}

TupleHandle Middleware::read_one(const Pattern& pattern) const {
  return space_.read_one(pattern);
}

std::vector<TupleHandle> Middleware::take(const Pattern& pattern) {
  return space_.take(pattern);
}

SubscriptionId Middleware::subscribe(Pattern pattern,
                                     EventBus::Reaction reaction,
                                     int kind_filter) {
  return bus_.subscribe(std::move(pattern), std::move(reaction), kind_filter);
}

QueryId Middleware::subscribe_query(Pattern pattern,
                                    EventBus::QueryCallback on_delta) {
  const Pattern seed = pattern;  // replay needs it after the bus takes it
  const QueryId id =
      bus_.subscribe_query(std::move(pattern), std::move(on_delta));
  // Replay: admit every currently-stored match (uid order), so the
  // caller's view starts complete before incremental deltas take over.
  space_.for_matching(seed, [&](const TupleSpace::Entry& entry) {
    bus_.seed_query(id, entry, platform_.now());
    return true;
  });
  return id;
}

void Middleware::unsubscribe_query(QueryId id) { bus_.unsubscribe_query(id); }

void Middleware::unsubscribe(SubscriptionId id) { bus_.unsubscribe(id); }

void Middleware::unsubscribe(const Pattern& pattern) {
  bus_.unsubscribe(pattern);
}

void Middleware::on_datagram(NodeId from,
                             std::span<const std::uint8_t> payload) {
  engine_.on_datagram(from, payload);
}

void Middleware::on_neighbor_up(NodeId neighbor) {
  engine_.on_neighbor_up(neighbor);
  const PresenceTuple presence(neighbor, /*up=*/true);
  bus_.publish(Event{EventKind::kNeighborUp, &presence, platform_.now()});
}

void Middleware::on_neighbor_down(NodeId neighbor) {
  engine_.on_neighbor_down(neighbor);
  const PresenceTuple presence(neighbor, /*up=*/false);
  bus_.publish(Event{EventKind::kNeighborDown, &presence, platform_.now()});
}

}  // namespace tota
