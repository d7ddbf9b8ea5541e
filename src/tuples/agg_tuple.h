// In-network aggregation tuples (docs/AGGREGATION.md).
//
// Paper §5 builds *structure* with distributed tuples (hop fields); any
// app wanting a *summary* of that structure — how crowded, how hot, how
// many — still gathered raw tuples back at the source, paying one
// message per node per reading.  Following the in-network aggregation
// literature (Kennedy/Koch/Demers in PAPERS.md), the fold should instead
// happen inside the network, along the dissemination tree the field
// itself defines:
//
//  * AggregationTuple — a predicate QueryTuple subtype that spreads a
//    hop field from the *sink* (the enquirer).  Its replicas' entry
//    parents form a parent→children gradient tree rooted at the sink.
//    Content carries the combiner (count/sum/min/max/avg), the name of
//    the contributing value field, an optional contribution Pattern
//    (what counts, QueryTuple-style), and a per-tuple half-life for
//    value decay.
//
//  * AggReportTuple — a one-hop report a tree node emits toward its
//    designated parent (`via`): the partial aggregate of the node's own
//    contributions plus its children's reports.  Reports are stored at
//    every one-hop neighbour — apply_effects() replaces the reporter's
//    previous report in place (the paper's "deleting/modifying specific
//    tuples in the propagation nodes"), and a neighbour that is *not*
//    the designated parent simply never folds what it stores, which is
//    also what lets an abandoned parent observe a re-parented child.
//
//  * AggSummary — the partial aggregate riding a report: decayed
//    additive mass + contribution count, undecayed extrema, and the
//    stamp the additive parts were last exact at.  Decay is exponential
//    (2^(-age/half_life)), which is memoryless: decaying at a child,
//    shipping, and decaying again at the parent composes to exactly the
//    decay-from-origin factor, so partial folds commute with time.
//
// The folding runtime that ties these together lives in
// tuples/aggregator.h; this header is just the wire types.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/clock.h"
#include "tuples/query_tuple.h"

namespace tota::tuples {

enum class AggOp : std::uint8_t { kCount, kSum, kMin, kMax, kAvg };

const char* to_string(AggOp op);
std::optional<AggOp> agg_op_from_string(const std::string& s);

/// 2^(-age/half_life): the decay factor of a contribution aged `age`.
/// half_life <= 0 disables decay (factor 1).  Computed with plain
/// arithmetic (series + ldexp), *not* libm's exp2 — libm results differ
/// by ULPs across platforms, which would break the bit-for-bit bench
/// baselines the CI pins.
[[nodiscard]] double agg_decay_factor(SimTime age, SimTime half_life);

/// A partial aggregate: everything a subtree's contributions reduce to.
/// `sum` and `count` are the decayed additive parts (exact as of
/// `stamp`); `min`/`max` are extrema over the live contributions and do
/// not decay (a maximum does not fade, it expires — the maintenance tick
/// in tuples/aggregator.h prunes contributions past ~10 half-lives).
struct AggSummary {
  double sum = 0.0;
  double count = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_extrema = false;
  /// Instant `sum`/`count` were last exact.
  SimTime stamp{};

  /// One fresh contribution of `value` observed at `now`.
  [[nodiscard]] static AggSummary contribution(double value, SimTime now) {
    AggSummary s;
    s.sum = value;
    s.count = 1.0;
    s.min = value;
    s.max = value;
    s.has_extrema = true;
    s.stamp = now;
    return s;
  }

  [[nodiscard]] bool empty() const { return count <= 0.0 && !has_extrema; }

  /// Additive parts decayed from `stamp` to `now` (identity when
  /// half_life <= 0 or now <= stamp).
  [[nodiscard]] AggSummary decayed_to(SimTime now, SimTime half_life) const;

  /// Folds `other` in; both sides are first decayed to `now`.
  void fold(const AggSummary& other, SimTime now, SimTime half_life);

  /// Reduces to the combiner's answer; nullopt when the combiner is
  /// undefined on an empty summary (min/max/avg of nothing).
  [[nodiscard]] std::optional<double> result(AggOp op) const;

  friend bool operator==(const AggSummary&, const AggSummary&) = default;
};

/// The aggregation field: a predicate QueryTuple whose hop gradient is
/// the fold tree.  Inject at the sink ("average temperature within 3
/// hops" = op kAvg, over("temp"), scope 3); every reached node's
/// Aggregator folds upward (tuples/aggregator.h).
class AggregationTuple final : public QueryTuple {
 public:
  static constexpr const char* kTag = "tota.agg";

  AggregationTuple() = default;
  AggregationTuple(std::string name, AggOp op, int scope = kUnbounded);

  /// Which content field of matching tuples contributes the value.
  /// Unset: only kCount works (each match contributes 1).
  AggregationTuple& over(std::string value_field);

  /// What counts as a contribution at each node — same mechanism as
  /// QueryTuple::with_predicate.  Always constrain the type: an
  /// unconstrained pattern would match the aggregation's own report
  /// tuples and double-fold.
  AggregationTuple& matching(const Pattern& contributes);

  /// Contribution values decay as 2^(-age/half_life); zero (default)
  /// disables decay.
  AggregationTuple& with_half_life(SimTime half_life);

  [[nodiscard]] AggOp op() const;
  [[nodiscard]] std::string value_field() const;
  [[nodiscard]] SimTime half_life() const;

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<AggregationTuple>(*this);
  }
};

/// One node's partial aggregate, handed one hop to its neighbourhood.
/// Propagates only from the reporter (hop 0) and is stored at every
/// one-hop receiver; the designated parent (`via`) folds it, everyone
/// else just keeps the latest copy so replacement and re-parenting stay
/// observable.  Not maintained: a report is delivered data, not
/// structure.
class AggReportTuple final : public Tuple {
 public:
  static constexpr const char* kTag = "tota.agg.report";

  AggReportTuple() = default;

  /// `rseq` is the reporter's strictly increasing send counter — it
  /// breaks ordering ties between reports folded within the same clock
  /// microsecond (see decide_enter).
  [[nodiscard]] static std::unique_ptr<AggReportTuple> make(
      const TupleUid& agg, NodeId reporter, NodeId via, int tree_hop,
      const AggSummary& summary, std::uint64_t rseq = 0);

  /// Uid of the AggregationTuple this report folds into.
  [[nodiscard]] TupleUid agg_uid() const;
  [[nodiscard]] NodeId reporter() const;
  /// Designated parent — the only neighbour that folds this report.
  [[nodiscard]] NodeId via() const;
  /// The reporter's hop in the aggregation tree.
  [[nodiscard]] int tree_hop() const;
  [[nodiscard]] AggSummary summary() const;

  // --- propagation rule: one hop out, replace in place ------------------
  bool decide_enter(const Context& ctx) override;
  bool decide_store(const Context& ctx) override;
  bool decide_propagate(const Context& ctx) override;
  /// Replaces the reporter's previous report for the same aggregation at
  /// this node (runs before this copy is stored).
  void apply_effects(const Context& ctx) override;
  [[nodiscard]] bool maintained() const override { return false; }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<AggReportTuple>(*this);
  }

 private:
  /// Matches this report's stored predecessors: same aggregation, same
  /// reporter.
  [[nodiscard]] Pattern predecessors() const;
};

}  // namespace tota::tuples
