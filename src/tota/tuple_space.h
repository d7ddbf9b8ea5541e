// The local tuple space of one TOTA node.
//
// Holds at most one replica per distributed tuple (keyed by TupleUid) plus
// per-replica maintenance metadata: which neighbour the replica was
// received from (`parent` — the dependency link the self-maintenance
// algorithm cascades along) and whether the replica is re-propagated to
// newly-appearing neighbours.
//
// Storage is a *flat store with maintained order*.  A node holds tens of
// replicas and reads them far more often than it changes them, so the
// replicas and both indexes live in uid-sorted contiguous vectors,
// searched by binary search:
//
//   entries_     (uid, owned Entry) — the primary store; every query
//                iterates replicas in uid order without a per-query sort;
//   by_type_     a short list of (type tag, uid-sorted (uid, Entry*)
//                members), so a typed pattern (Pattern::of_type) touches
//                only replicas of that type;
//   propagated_  uid-sorted uids flagged for link-up re-propagation, so
//                propagated_uids is O(flagged).
//
// Each Entry lives in its own heap block, so its address survives vector
// growth and a replacement (which reuses the block): the engine holds a
// `const Entry*` across process(), whose reactions may inject reentrantly,
// and by_type_ stores the same pointers.
//
// A query walks one of two candidate lists: a typed pattern walks its
// type bucket, an untyped one the whole store.  Field constraints are
// checked on each candidate (docs/QUERY.md).
//
// Replicas are immutable and shared: reads hand out TupleHandles to the
// stored objects, which keep their content after the space replaces or
// removes them.
//
// Invariants (asserted by the property tests in tests/test_tuple_space.cc):
// every entry appears in exactly one by_type_ bucket (under its cached
// type_tag) and in propagated_ iff its flag is set; typed queries
// therefore return bit-for-bit the same tuples, in the same uid order, as
// a naive full scan.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "obs/metrics.h"
#include "tota/pattern.h"
#include "tota/tuple.h"

namespace tota {

/// The tuple space's observability handles (docs/OBSERVABILITY.md,
/// `space.*`), resolved once so queries never do a by-name lookup.
struct SpaceMetrics {
  explicit SpaceMetrics(obs::MetricsRegistry& registry);

  /// Typed queries, answered from their type bucket.
  obs::Counter& query_indexed;
  /// Untyped queries, which scan the whole store.
  obs::Counter& query_scan;
  /// Entries actually examined (pattern-match attempts) across queries.
  obs::Counter& candidates;
  /// Entries that matched.
  obs::Counter& matches;
  /// Entries a naive full scan would have examined (store size at query
  /// time); candidates/naive_candidates is the index's candidate ratio.
  obs::Counter& naive_candidates;
  /// Candidates that reached field-predicate evaluation
  /// (`space.plan.residual_evals`).
  obs::Counter& plan_residual_evals;
};

class TupleSpace {
 public:
  struct Entry {
    TupleHandle tuple;
    /// tuple->type_tag(), cached at put() so queries and index
    /// maintenance never re-derive it through the virtual call.
    std::string type_tag;
    /// Neighbour this replica came from; invalid for locally-injected
    /// tuples (the source has no upstream dependency).
    NodeId parent;
    /// True when decide_propagate() held here, so the replica is re-sent
    /// to new neighbours by the maintenance machinery.
    bool propagated = false;
    SimTime stored_at;
  };

  /// How a replica changed, as seen by the change listener.
  enum class ChangeKind {
    kInserted,  // a new uid entered the store
    kReplaced,  // an existing uid was overwritten (possibly new tag/meta)
    kErased,    // a replica left the store (take/retract/supersede)
  };

  /// One listener observes every mutation — the hook continuous queries
  /// hang off (Middleware wires it into EventBus::notify_space).  For
  /// kInserted/kReplaced the entry is the fully-indexed new state; for
  /// kErased it is the still-intact entry just before removal.  The
  /// listener must not mutate the space reentrantly.
  using ChangeListener =
      std::function<void(ChangeKind kind, const Entry& entry)>;
  void set_listener(ChangeListener listener) {
    listener_ = std::move(listener);
  }

  /// Registers the space.* instruments on `registry` and records into
  /// them from then on.  Optional: an unbound space counts nothing.
  void bind_metrics(obs::MetricsRegistry& registry);

  /// Stores or replaces the replica for tuple->uid().
  void put(TupleHandle tuple, NodeId parent, bool propagated, SimTime now);

  /// Replica for `uid`, or nullptr.
  [[nodiscard]] const Entry* find(const TupleUid& uid) const;

  /// Removes the replica for `uid`; returns it (empty if absent).
  TupleHandle erase(const TupleUid& uid);

  /// Handles to the stored tuples matching `pattern` (the paper's
  /// `read`).  One allocation at most: the result vector.
  [[nodiscard]] std::vector<TupleHandle> read(const Pattern& pattern) const;

  /// First match, if any — the common single-tuple lookup.  Early-exits
  /// on the first (lowest-uid) match and allocates nothing.
  [[nodiscard]] TupleHandle read_one(const Pattern& pattern) const;

  /// Removes and returns the matches (the paper's `delete`).
  std::vector<TupleHandle> take(const Pattern& pattern);

  /// Uids of replicas flagged for re-propagation.  O(flagged).
  [[nodiscard]] std::vector<TupleUid> propagated_uids() const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Iterates entries in deterministic (uid) order.  Should `fn` put
  /// into the space, the walk stays memory-safe but may revisit or skip
  /// entries; the same holds for every query callback below.
  void for_each(const std::function<void(const Entry&)>& fn) const;

  /// Runs `fn` over every entry matching `pattern` in uid order, until
  /// `fn` returns false — what Middleware uses to seed a continuous
  /// query's result set.
  void for_matching(const Pattern& pattern,
                    const std::function<bool(const Entry&)>& fn) const;

 private:
  /// One type tag's replicas, uid-sorted.
  using TypeMembers = std::vector<std::pair<TupleUid, const Entry*>>;
  struct Slot {
    TupleUid uid;
    std::unique_ptr<Entry> entry;
  };
  struct TypeBucket {
    std::string tag;
    TypeMembers members;
  };

  /// Position of `uid` in entries_, or where it would be inserted.
  [[nodiscard]] std::vector<Slot>::const_iterator locate(
      const TupleUid& uid) const;
  /// Index of `tag`'s bucket in by_type_, or by_type_.size() if none.
  [[nodiscard]] std::size_t bucket_index(const std::string& tag) const;

  /// Inserts/removes `entry` (stored under `uid`) into/from the type
  /// bucket of its tag.
  void index_type(const TupleUid& uid, const Entry& entry);
  void unindex_type(const TupleUid& uid, const Entry& entry);
  /// Adds/removes `uid` to/from propagated_.
  void set_propagated(const TupleUid& uid, bool propagated);

  /// Counts the query under space.*, then runs `fn(entry)` over the
  /// entries matching `pattern` in uid order until `fn` returns false.
  /// The candidates are the pattern's type bucket when it is typed, else
  /// the whole store; `walk_length`, when given, receives their count
  /// before the first call.
  template <typename Fn>
  void match(const Pattern& pattern, Fn&& fn,
             std::size_t* walk_length = nullptr) const;

  std::vector<Slot> entries_;
  /// Buckets are never removed (a node sees a handful of tags), so a
  /// bucket's index stays valid for the life of the space.
  std::vector<TypeBucket> by_type_;
  std::vector<TupleUid> propagated_;
  ChangeListener listener_;
  std::unique_ptr<SpaceMetrics> metrics_;
};

}  // namespace tota
