// Aggregator — the per-node folding runtime of the in-network
// aggregation subsystem (docs/AGGREGATION.md; wire types in
// tuples/agg_tuple.h).
//
// One Aggregator rides on one Middleware and is entirely reactive: it
// keeps three kinds of continuous queries (docs/QUERY.md) open against
// the node's tuple space —
//
//   1. every AggregationTuple replica (tree membership, re-parenting,
//      retraction),
//   2. per aggregation, the contribution pattern (which local tuples
//      count right now),
//   3. per aggregation, the stored AggReportTuples (children's partial
//      aggregates)
//
// — and re-folds *incrementally* from the change stream: a put/replace/
// retract updates exactly one map entry and marks the tree dirty; the
// space is never re-scanned.  Dirty trees are folded and re-reported on
// a coalescing zero-delay flush timer, so a burst of deltas costs one
// fold, and flush-time effects (injecting reports, taking stale ones)
// never run inside a space-mutation callback — the TupleSpace listener
// contract forbids reentrant mutation, so delta handlers only touch
// Aggregator state and schedule the flush.
//
// The fold itself is degree-bounded: own sensor + local contributions +
// one stored summary per child whose report designates this node
// (`via == self`) and who is still a neighbour.  Reports travel one hop
// toward the sink, so a change |tree| hops deep reaches the sink after
// |tree| radio hops of cascading re-reports — O(depth) messages, not
// O(nodes) (bench/bench_aggregation.cc measures exactly this against
// the naive gather).
//
// Value decay and expiry run on the maintenance tick (Aggregator::kTick):
// fully-decayed contributions are pruned, and with `refresh_on_tick` the
// node re-sends its report each tick — the recovery path for duty-cycled
// receivers that slept through a report (net/device_profile.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tota/middleware.h"
#include "tuples/agg_tuple.h"

namespace tota::tuples {

struct AggregatorOptions {
  /// Re-send this node's report every tick even when unchanged —
  /// recovers reports lost to sleeping or lossy receivers at a bounded
  /// one-message-per-node-per-tick cost.
  bool refresh_on_tick = false;
};

class Aggregator {
 public:
  /// Decay/refresh tick period.
  static constexpr SimTime kTick = SimTime::from_millis(250);
  /// A contribution older than this many half-lives is pruned (its
  /// decay factor is below 2^-10 — noise).  Only applies to decaying
  /// aggregations.
  static constexpr double kExpiryHalfLives = 10.0;

  /// `mw` must outlive the Aggregator.  Registers the agg.* instruments
  /// on the middleware's hub (docs/OBSERVABILITY.md).
  explicit Aggregator(Middleware& mw, AggregatorOptions opts = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Injects `spec` from this node — this node becomes the sink the
  /// tree folds toward.  Read the answer with result()/summary().
  TupleUid ask(std::unique_ptr<AggregationTuple> spec);

  /// Sets / clears this node's direct sensor contribution to every
  /// aggregation named `name` — the pattern-less way to feed a tree
  /// (CrowdDensity-style apps use contribution patterns instead).
  void set_sensor(const std::string& name, double value);
  void clear_sensor(const std::string& name);

  /// The folded subtree summary for the aggregation named `name` at
  /// this node, decayed to now.  At the sink the subtree is the whole
  /// in-scope network; nullopt when this node is not in that tree.
  [[nodiscard]] std::optional<AggSummary> summary(
      const std::string& name) const;

  /// summary() reduced by the aggregation's combiner (nullopt when not
  /// in the tree, or min/max/avg over an empty summary).
  [[nodiscard]] std::optional<double> result(const std::string& name) const;

  /// Aggregation trees this node currently participates in.
  [[nodiscard]] std::size_t active() const { return states_.size(); }
  /// This node's hop in the tree of `name` (-1 when not a member).
  [[nodiscard]] int tree_hop(const std::string& name) const;

 private:
  struct Contribution {
    double value = 0.0;
    SimTime stamp{};
  };
  /// The latest stored report of one neighbour (folded only when
  /// via == self and the reporter is still a neighbour).
  struct ChildReport {
    NodeId via{};
    int tree_hop = 0;
    AggSummary summary;
  };
  struct AggState {
    TupleUid uid;
    std::string name;
    AggOp op = AggOp::kCount;
    std::string field;
    std::optional<Pattern> contributes;
    SimTime half_life{};
    int hop = 0;
    NodeId via{};  // designated parent; invalid at the sink
    QueryId report_query = 0;
    QueryId contrib_query = 0;
    std::map<TupleUid, Contribution> local;
    std::map<NodeId, ChildReport> children;
    std::optional<AggSummary> last_reported;
    bool dirty = true;
  };

  // Delta handlers: map updates + dirty marking only (they run inside
  // space mutations — see the header essay).
  void on_agg_delta(const QueryDelta& delta);
  void on_report_delta(const TupleUid& agg, const QueryDelta& delta);
  void on_contrib_delta(const TupleUid& agg, const QueryDelta& delta);
  void on_neighbor_down(NodeId neighbor);
  /// A link appeared: force-re-report so the newcomer's cached copies of
  /// our reports (possibly stale from a blackout) get replaced — the
  /// report-layer analogue of engine link-up re-propagation.
  void on_neighbor_up();

  void schedule_flush();
  /// Reconciles tree membership with the space, applies queued
  /// neighbour-downs, folds dirty trees, and re-reports.
  void flush();
  void sync_membership();
  void adopt(const TupleSpace::Entry& entry);
  void teardown(AggState& state);
  /// True when `state.via` cannot fold our report: gone from the
  /// neighbourhood, or drifted to a depth other than `state.hop - 1`
  /// (judged by its own stored report).
  [[nodiscard]] bool parent_unusable(const AggState& state) const;
  /// Picks a new designated parent from stored parent-ring reports when
  /// the current one became unusable.
  void reparent(AggState& state);
  void fold_and_report(AggState& state, SimTime now, bool force);
  [[nodiscard]] AggSummary fold(const AggState& state, SimTime now) const;
  [[nodiscard]] double contribution_value(const AggState& state,
                                          const Tuple& tuple,
                                          bool* ok) const;
  [[nodiscard]] bool is_neighbor(NodeId id) const;
  [[nodiscard]] const AggState* find_by_name(const std::string& name) const;

  void ensure_tick();
  void tick();

  Middleware& mw_;
  AggregatorOptions opts_;
  QueryId agg_query_ = 0;
  SubscriptionId down_sub_ = 0;
  SubscriptionId up_sub_ = 0;
  std::map<TupleUid, AggState> states_;
  std::map<std::string, Contribution> sensors_;
  /// Aggregations whose replica changed since the last flush
  /// (membership is reconciled against the space there).
  std::vector<TupleUid> touched_;
  std::vector<NodeId> pending_downs_;
  bool flush_pending_ = false;
  /// Set across flush() so effects it causes coalesce into this flush
  /// instead of scheduling another.
  bool in_flush_ = false;
  bool tick_scheduled_ = false;
  bool force_report_ = false;
  /// Strictly increasing send counter stamped into every outgoing
  /// report — breaks same-microsecond ordering ties at receivers.
  std::uint64_t report_seq_ = 0;
  /// Timers check this before touching a possibly-destroyed Aggregator.
  std::shared_ptr<bool> alive_;

  obs::Counter& folds_;
  obs::Counter& reports_tx_;
  obs::Counter& deltas_;
  obs::Counter& flushes_;
  obs::Counter& ticks_;
  obs::Counter& prunes_;
  obs::Counter& reparents_;
};

}  // namespace tota::tuples
