// EVENT INTERFACE — asynchronous notification of local events.
//
// "Any event occurring in TOTA (including: arrivals of new tuples,
// connections and disconnections of nodes) can be represented as a tuple"
// (Sec. 4.3): neighbour connect/disconnect is published as an ephemeral
// PresenceTuple, so one subscription mechanism (pattern + reaction)
// covers everything.  The Java prototype names the reaction method by
// string; the C++ analogue is a callback.
//
// Dispatch is indexed: subscriptions live in (kind_filter, pattern type
// tag) buckets, so publish() examines only the four buckets an event can
// match — (kind, tag), (kind, any), (any, tag), (any, any) — instead of
// every subscription.  Reactions fire in subscription order (ids are
// assigned monotonically), identical to the pre-index linear scan, and
// reentrancy is handled by snapshotting the matched reactions and
// checking a live-id set (O(1) per reaction) before each call.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "obs/metrics.h"
#include "tota/pattern.h"
#include "tota/tuple.h"
#include "tota/tuple_space.h"

namespace tota {

enum class EventKind {
  kTupleArrived,   // a tuple entered (or updated in) the local space
  kTupleRemoved,   // a replica was removed (taken or retracted)
  kNeighborUp,     // a node joined the one-hop neighbourhood
  kNeighborDown,   // a node left the one-hop neighbourhood
};

const char* to_string(EventKind kind);

/// What a reaction sees.  `tuple` is the arrived/removed tuple, or the
/// synthesized PresenceTuple for neighbour events; always non-null and
/// valid only for the duration of the callback.
struct Event {
  EventKind kind;
  const Tuple* tuple;
  SimTime time;
};

/// Ephemeral tuple representing a neighbour connect/disconnect.  Never
/// stored or propagated; exists so presence subscriptions use ordinary
/// patterns: Pattern::of_type(PresenceTuple::kTag).eq("event", "up").
class PresenceTuple final : public Tuple {
 public:
  static constexpr const char* kTag = "tota.presence";

  PresenceTuple() = default;
  PresenceTuple(NodeId neighbor, bool up);

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<PresenceTuple>(*this);
  }
  [[nodiscard]] NodeId neighbor() const { return content().at("node").as_node(); }
  [[nodiscard]] bool up() const { return content().at("event").as_string() == "up"; }
};

using SubscriptionId = std::uint64_t;
using QueryId = std::uint64_t;

/// One incremental change to a continuous query's result set
/// (docs/QUERY.md).  `tuple` is valid only for the duration of the
/// callback; kRemoved deltas see the tuple as it was when it left.
struct QueryDelta {
  enum class Kind {
    kAdded,    // tuple entered the result set
    kUpdated,  // a member was replaced and still matches
    kRemoved,  // tuple left the result set (retract/take/replace-out)
  };
  Kind kind;
  const Tuple* tuple;
  SimTime time;
};

const char* to_string(QueryDelta::Kind kind);

/// The bus's observability handles (docs/OBSERVABILITY.md, `bus.*`).
struct BusMetrics {
  explicit BusMetrics(obs::MetricsRegistry& registry);

  /// Events published.
  obs::Counter& publish;
  /// Subscriptions examined (pattern-match attempts) across publishes;
  /// candidates/publish approaches the matching count as buckets help.
  obs::Counter& candidates;
  /// Reactions run.
  obs::Counter& fired;
  /// Snapshot entries skipped because an earlier reaction in the same
  /// publish unsubscribed them.
  obs::Counter& skipped_dead;

  // Continuous-query counters (bus.cq.*, docs/QUERY.md).
  /// (query, change) pairs evaluated across space mutations.
  obs::Counter& cq_evals;
  /// Deltas delivered, by kind.
  obs::Counter& cq_added;
  obs::Counter& cq_updated;
  obs::Counter& cq_removed;
};

class EventBus {
 public:
  using Reaction = std::function<void(const Event&)>;
  using QueryCallback = std::function<void(const QueryDelta&)>;

  /// Registers the bus.* instruments on `registry` and records into them
  /// from then on.  Optional: an unbound bus counts nothing.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Registers `reaction` for events whose tuple matches `pattern`,
  /// optionally restricted to one event kind (kAnyKind = all).
  static constexpr int kAnyKind = -1;
  SubscriptionId subscribe(Pattern pattern, Reaction reaction,
                           int kind_filter = kAnyKind);

  void unsubscribe(SubscriptionId id);

  /// Removes every subscription whose pattern is structurally equivalent
  /// to `pattern` — the paper's `unsubscribe(Tuple template)`.
  void unsubscribe(const Pattern& pattern);

  /// Dispatches an event to all matching subscriptions.  Reactions may
  /// subscribe/unsubscribe/inject reentrantly; dispatch works on a
  /// snapshot, and a reaction unsubscribed mid-publish never fires.
  void publish(const Event& event);

  [[nodiscard]] std::size_t subscription_count() const {
    return subscriptions_.size();
  }

  // --- continuous queries (docs/QUERY.md) -----------------------------------
  // A standing query whose result set is maintained *incrementally*: each
  // space mutation (reported via notify_space) re-evaluates only the
  // changed tuple against the registered patterns — never a re-scan —
  // and membership transitions become added/updated/removed deltas.

  /// Registers a standing query.  The caller seeds the initial result set
  /// (see seed_query); from then on deltas flow from notify_space.
  QueryId subscribe_query(Pattern pattern, QueryCallback on_delta);

  void unsubscribe_query(QueryId id);

  /// Admits one already-stored replica into query `id`'s result set at
  /// registration time (fires kAdded if it matches).  Replays the same
  /// evaluation notify_space would run for an insert.
  void seed_query(QueryId id, const TupleSpace::Entry& entry, SimTime now);

  /// How a space mutation enters the bus: the arguments of
  /// TupleSpace's change listener (Middleware wires one to the other).
  /// O(1) when no continuous query could match the tuple's type.
  void notify_space(TupleSpace::ChangeKind change,
                    const TupleSpace::Entry& entry, SimTime now);

  [[nodiscard]] std::size_t query_count() const { return queries_.size(); }

 private:
  struct Subscription {
    SubscriptionId id;
    Pattern pattern;
    Reaction reaction;
    int kind_filter;
  };

  /// Bucket key: the subscription's exact kind filter (kAnyKind for
  /// unfiltered) and its pattern's type tag ("" for untyped patterns —
  /// registered tuple tags are never empty).
  struct BucketKey {
    int kind;
    std::string tag;
    friend bool operator==(const BucketKey&, const BucketKey&) = default;
  };
  struct BucketKeyHash {
    std::size_t operator()(const BucketKey& k) const {
      return std::hash<std::string>{}(k.tag) ^
             (std::hash<int>{}(k.kind) * 0x9E3779B97F4A7C15ull);
    }
  };

  [[nodiscard]] static BucketKey key_of(const Subscription& sub);

  /// Appends the ids of one bucket to `out`.
  void collect(const BucketKey& key, std::vector<SubscriptionId>& out) const;

  /// Removes `id` from the store, its bucket, and the live set.
  void drop(SubscriptionId id);

  /// Id-ordered store; iteration order == subscription order because ids
  /// are assigned monotonically.
  std::map<SubscriptionId, Subscription> subscriptions_;
  std::unordered_map<BucketKey, std::vector<SubscriptionId>, BucketKeyHash>
      buckets_;
  /// Ids currently subscribed — the O(1) liveness check publish() uses
  /// instead of rescanning the store per fired reaction.
  std::unordered_set<SubscriptionId> live_;
  SubscriptionId next_id_ = 1;

  struct ContinuousQuery {
    QueryId id;
    Pattern pattern;
    QueryCallback on_delta;
    /// Current result-set membership, by uid.
    std::set<TupleUid> members;
  };

  /// Evaluates one (query, change) pair and fires the resulting delta,
  /// if any.  `erased` suppresses matching (the tuple is leaving).
  void evaluate_query(ContinuousQuery& q, bool erased,
                      const TupleSpace::Entry& entry, SimTime now);

  /// Id-ordered store; delta delivery order == registration order.
  std::map<QueryId, ContinuousQuery> queries_;
  /// Type tag ("" = untyped) → query ids, pruned on unsubscribe.
  std::unordered_map<std::string, std::vector<QueryId>> query_buckets_;
  /// Live query ids — reentrancy guard mirroring `live_`.
  std::unordered_set<QueryId> live_queries_;
  QueryId next_query_id_ = 1;
  std::unique_ptr<BusMetrics> metrics_;
};

}  // namespace tota
