#include "tuples/aggregator.h"

#include <algorithm>

namespace tota::tuples {

Aggregator::Aggregator(Middleware& mw, AggregatorOptions opts)
    : mw_(mw),
      opts_(opts),
      alive_(std::make_shared<bool>(true)),
      folds_(mw.hub().metrics.counter("agg.fold")),
      reports_tx_(mw.hub().metrics.counter("agg.report_tx")),
      deltas_(mw.hub().metrics.counter("agg.delta")),
      flushes_(mw.hub().metrics.counter("agg.flush")),
      ticks_(mw.hub().metrics.counter("agg.tick")),
      prunes_(mw.hub().metrics.counter("agg.prune")),
      reparents_(mw.hub().metrics.counter("agg.reparent")) {
  agg_query_ = mw_.subscribe_query(
      Pattern::of_type(AggregationTuple::kTag),
      [this](const QueryDelta& delta) { on_agg_delta(delta); });
  down_sub_ = mw_.subscribe(
      Pattern::of_type(PresenceTuple::kTag),
      [this](const Event& ev) {
        on_neighbor_down(
            static_cast<const PresenceTuple&>(*ev.tuple).neighbor());
      },
      static_cast<int>(EventKind::kNeighborDown));
  up_sub_ = mw_.subscribe(
      Pattern::of_type(PresenceTuple::kTag),
      [this](const Event&) { on_neighbor_up(); },
      static_cast<int>(EventKind::kNeighborUp));
}

Aggregator::~Aggregator() {
  *alive_ = false;
  for (auto& [uid, state] : states_) teardown(state);
  mw_.unsubscribe_query(agg_query_);
  mw_.unsubscribe(down_sub_);
  mw_.unsubscribe(up_sub_);
}

TupleUid Aggregator::ask(std::unique_ptr<AggregationTuple> spec) {
  return mw_.inject(std::move(spec));
}

void Aggregator::set_sensor(const std::string& name, double value) {
  sensors_[name] = Contribution{value, mw_.platform().now()};
  for (auto& [uid, state] : states_) {
    if (state.name == name) state.dirty = true;
  }
  schedule_flush();
}

void Aggregator::clear_sensor(const std::string& name) {
  if (sensors_.erase(name) == 0) return;
  for (auto& [uid, state] : states_) {
    if (state.name == name) state.dirty = true;
  }
  schedule_flush();
}

std::optional<AggSummary> Aggregator::summary(const std::string& name) const {
  const AggState* state = find_by_name(name);
  if (state == nullptr) return std::nullopt;
  return fold(*state, mw_.platform().now());
}

std::optional<double> Aggregator::result(const std::string& name) const {
  const AggState* state = find_by_name(name);
  if (state == nullptr) return std::nullopt;
  return fold(*state, mw_.platform().now()).result(state->op);
}

int Aggregator::tree_hop(const std::string& name) const {
  const AggState* state = find_by_name(name);
  return state == nullptr ? -1 : state->hop;
}

const Aggregator::AggState* Aggregator::find_by_name(
    const std::string& name) const {
  for (const auto& [uid, state] : states_) {
    if (state.name == name) return &state;
  }
  return nullptr;
}

// --- delta handlers (inside space mutations: no space access) ---------------

void Aggregator::on_agg_delta(const QueryDelta& delta) {
  deltas_.inc();
  touched_.push_back(delta.tuple->uid());
  schedule_flush();
}

void Aggregator::on_report_delta(const TupleUid& agg,
                                 const QueryDelta& delta) {
  deltas_.inc();
  const auto it = states_.find(agg);
  if (it == states_.end()) return;
  const auto* report = dynamic_cast<const AggReportTuple*>(delta.tuple);
  if (report == nullptr) return;
  auto& state = it->second;
  if (delta.kind == QueryDelta::Kind::kRemoved) {
    state.children.erase(report->reporter());
  } else {
    state.children[report->reporter()] =
        ChildReport{report->via(), report->tree_hop(), report->summary()};
  }
  state.dirty = true;
  schedule_flush();
}

void Aggregator::on_contrib_delta(const TupleUid& agg,
                                  const QueryDelta& delta) {
  deltas_.inc();
  const auto it = states_.find(agg);
  if (it == states_.end()) return;
  auto& state = it->second;
  // Never fold the subsystem's own tuples, however loose the user's
  // contribution pattern is — that would feed the tree back into itself.
  const std::string tag = delta.tuple->type_tag();
  if (tag == AggReportTuple::kTag || tag == AggregationTuple::kTag) return;
  const TupleUid uid = delta.tuple->uid();
  if (delta.kind == QueryDelta::Kind::kRemoved) {
    state.local.erase(uid);
  } else {
    bool ok = false;
    const double value = contribution_value(state, *delta.tuple, &ok);
    if (ok) {
      state.local[uid] = Contribution{value, delta.time};
    } else {
      state.local.erase(uid);
    }
  }
  state.dirty = true;
  schedule_flush();
}

double Aggregator::contribution_value(const AggState& state,
                                      const Tuple& tuple, bool* ok) const {
  if (state.field.empty()) {
    // Pattern-only aggregations can count matches, nothing more.
    *ok = state.op == AggOp::kCount;
    return 1.0;
  }
  const wire::Value* v = tuple.content().find(state.field);
  if (v == nullptr || (v->type() != wire::ValueType::kInt &&
                       v->type() != wire::ValueType::kDouble)) {
    *ok = false;
    return 0.0;
  }
  *ok = true;
  return v->as_number();
}

void Aggregator::on_neighbor_down(NodeId neighbor) {
  pending_downs_.push_back(neighbor);
  schedule_flush();
}

void Aggregator::on_neighbor_up() {
  if (states_.empty()) return;
  force_report_ = true;
  schedule_flush();
}

// --- the flush: reconcile, fold, report -------------------------------------

void Aggregator::schedule_flush() {
  if (flush_pending_ || in_flush_) return;
  flush_pending_ = true;
  auto alive = alive_;
  mw_.platform().schedule(SimTime::zero(), [this, alive] {
    if (!*alive) return;
    flush_pending_ = false;
    flush();
  });
}

void Aggregator::flush() {
  in_flush_ = true;
  flushes_.inc();
  sync_membership();
  if (!pending_downs_.empty()) {
    auto downs = std::move(pending_downs_);
    pending_downs_.clear();
    std::sort(downs.begin(), downs.end());
    downs.erase(std::unique(downs.begin(), downs.end()), downs.end());
    for (const NodeId gone : downs) {
      // Reports are not engine-maintained (delivered data), so the
      // departed reporter's stored reports are dropped here; the take
      // fires kRemoved deltas that clear the children maps.
      Pattern stale = Pattern::of_type(AggReportTuple::kTag);
      stale.eq("reporter", gone);
      mw_.take(stale);
      for (auto& [uid, state] : states_) {
        state.children.erase(gone);  // map-only entries the take missed
        if (state.via == gone) state.dirty = true;
      }
    }
  }
  const SimTime now = mw_.platform().now();
  const bool force = force_report_;
  force_report_ = false;
  for (auto& [uid, state] : states_) {
    if (state.dirty || force) fold_and_report(state, now, force);
  }
  in_flush_ = false;
  ensure_tick();
}

void Aggregator::sync_membership() {
  if (touched_.empty()) return;
  auto touched = std::move(touched_);
  touched_.clear();
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const TupleUid uid : touched) {
    const TupleSpace::Entry* entry = mw_.space().find(uid);
    const auto it = states_.find(uid);
    if (entry == nullptr) {
      if (it != states_.end()) {
        teardown(it->second);
        states_.erase(it);
      }
      continue;
    }
    if (it == states_.end()) {
      adopt(*entry);
      continue;
    }
    auto& state = it->second;
    const auto* agg =
        dynamic_cast<const AggregationTuple*>(entry->tuple.get());
    if (agg == nullptr) continue;
    if (entry->parent != state.via || agg->hopcount() != state.hop) {
      if (entry->parent != state.via) reparents_.inc();
      // The tree position moved: the last report's via/tree_hop are
      // stale, so equality suppression must not swallow the next one —
      // the new parent folds nothing until a report designates it.
      state.last_reported.reset();
    }
    state.hop = agg->hopcount();
    state.via = entry->parent;
    state.half_life = agg->half_life();
    state.dirty = true;
  }
}

void Aggregator::adopt(const TupleSpace::Entry& entry) {
  const auto* agg = dynamic_cast<const AggregationTuple*>(entry.tuple.get());
  if (agg == nullptr) return;
  const TupleUid uid = agg->uid();
  AggState& state = states_[uid];
  state.uid = uid;
  state.name = agg->name();
  state.op = agg->op();
  state.field = agg->value_field();
  state.half_life = agg->half_life();
  state.hop = agg->hopcount();
  state.via = entry.parent;
  state.dirty = true;
  try {
    state.contributes = agg->predicate();
  } catch (const wire::DecodeError&) {
    state.contributes.reset();  // hostile blob: aggregate without it
  }
  // Registered from flush/ctor context (never inside a space mutation);
  // seeding replays already-stored reports and contributions, which is
  // how a node that heard reports before joining the tree catches up.
  Pattern reports = Pattern::of_type(AggReportTuple::kTag);
  reports.eq("agg_origin", uid.origin())
      .eq("agg_seq", static_cast<std::int64_t>(uid.sequence()));
  state.report_query = mw_.subscribe_query(
      reports,
      [this, uid](const QueryDelta& delta) { on_report_delta(uid, delta); });
  if (state.contributes) {
    state.contrib_query = mw_.subscribe_query(
        *state.contributes,
        [this, uid](const QueryDelta& delta) { on_contrib_delta(uid, delta); });
  }
}

void Aggregator::teardown(AggState& state) {
  if (state.report_query != 0) mw_.unsubscribe_query(state.report_query);
  if (state.contrib_query != 0) mw_.unsubscribe_query(state.contrib_query);
  state.report_query = 0;
  state.contrib_query = 0;
}

bool Aggregator::parent_unusable(const AggState& state) const {
  if (!state.via.valid() || !is_neighbor(state.via)) return true;
  // A parent that drifted to a different depth can no longer fold us
  // (its fold accepts only children one hop deeper than itself).  Its
  // own stored report tells us its current depth.
  const auto entry = state.children.find(state.via);
  return entry != state.children.end() &&
         entry->second.tree_hop != state.hop - 1;
}

void Aggregator::reparent(AggState& state) {
  // The stored parent-ring reports double as a parent directory: any
  // current neighbour reporting from hop-1 can adopt this subtree.
  NodeId best{};
  for (const auto& [reporter, child] : state.children) {
    if (child.tree_hop != state.hop - 1) continue;
    if (!is_neighbor(reporter)) continue;
    if (!best.valid() || reporter < best) best = reporter;
  }
  if (best.valid() && best != state.via) {
    state.via = best;
    state.last_reported.reset();  // the adopter needs a via=it report
    reparents_.inc();
  }
}

void Aggregator::fold_and_report(AggState& state, SimTime now, bool force) {
  if (state.hop > 0 && parent_unusable(state)) reparent(state);
  const AggSummary folded = fold(state, now);
  state.dirty = false;
  if (state.hop == 0) {
    // The sink reads its answer on demand and folds nothing upward, but
    // it must still announce itself: its stored report (via = nobody,
    // tree_hop 0) is the parent-ring directory entry hop-1 nodes
    // re-parent onto when their own parent disappears.  Once, plus on
    // link-up force so newcomers hear it too.
    if (force || !state.last_reported.has_value()) {
      mw_.inject(
          AggReportTuple::make(state.uid, mw_.self(), NodeId{}, 0, folded,
                               ++report_seq_));
      reports_tx_.inc();
      state.last_reported = folded;
    }
    return;
  }
  if (!state.via.valid() || !is_neighbor(state.via)) {
    return;  // orphaned: engine maintenance will retract or re-attach us
  }
  if (!force && state.last_reported.has_value() &&
      folded == state.last_reported->decayed_to(now, state.half_life)) {
    return;  // nothing a parent doesn't already know
  }
  mw_.inject(
      AggReportTuple::make(state.uid, mw_.self(), state.via, state.hop,
                           folded, ++report_seq_));
  reports_tx_.inc();
  state.last_reported = folded;
}

AggSummary Aggregator::fold(const AggState& state, SimTime now) const {
  folds_.inc();
  AggSummary total;
  total.stamp = now;
  const auto sensor = sensors_.find(state.name);
  if (sensor != sensors_.end()) {
    total.fold(AggSummary::contribution(sensor->second.value,
                                        sensor->second.stamp),
               now, state.half_life);
  }
  for (const auto& [uid, c] : state.local) {
    total.fold(AggSummary::contribution(c.value, c.stamp), now,
               state.half_life);
  }
  for (const auto& [reporter, child] : state.children) {
    // Fold exactly the true children: they designated us, they are still
    // in radio contact, and they sit one hop deeper.  The strict depth
    // check is what makes mutually-stale parent pointers unable to fold
    // each other's subtrees in a loop.
    if (child.via != mw_.self()) continue;
    if (child.tree_hop != state.hop + 1) continue;
    if (!is_neighbor(reporter)) continue;
    total.fold(child.summary, now, state.half_life);
  }
  return total;
}

bool Aggregator::is_neighbor(NodeId id) const {
  const auto& ns = mw_.neighbors();
  return std::binary_search(ns.begin(), ns.end(), id);
}

// --- the maintenance tick: decay pruning + optional refresh -----------------

void Aggregator::ensure_tick() {
  if (tick_scheduled_ || states_.empty()) return;
  bool needed = opts_.refresh_on_tick;
  for (const auto& [uid, state] : states_) {
    if (state.half_life.micros() > 0) needed = true;
  }
  if (!needed) return;
  tick_scheduled_ = true;
  auto alive = alive_;
  mw_.platform().schedule(kTick, [this, alive] {
    if (!*alive) return;
    tick_scheduled_ = false;
    tick();
  });
}

void Aggregator::tick() {
  ticks_.inc();
  const SimTime now = mw_.platform().now();
  for (auto& [uid, state] : states_) {
    if (state.half_life.micros() <= 0) continue;
    const SimTime expiry = state.half_life * kExpiryHalfLives;
    for (auto it = state.local.begin(); it != state.local.end();) {
      if (now.micros() - it->second.stamp.micros() > expiry.micros()) {
        it = state.local.erase(it);
        prunes_.inc();
        state.dirty = true;
      } else {
        ++it;
      }
    }
    // Fully-decayed child reports: drop the stored tuples too, so the
    // space does not accumulate dead neighbours' last words.
    std::vector<NodeId> expired;
    for (const auto& [reporter, child] : state.children) {
      if (now.micros() - child.summary.stamp.micros() > expiry.micros()) {
        expired.push_back(reporter);
      }
    }
    for (const NodeId reporter : expired) {
      Pattern stale = Pattern::of_type(AggReportTuple::kTag);
      stale.eq("agg_origin", state.uid.origin())
          .eq("agg_seq", static_cast<std::int64_t>(state.uid.sequence()))
          .eq("reporter", reporter);
      mw_.take(stale);  // kRemoved delta clears the map entry
      state.children.erase(reporter);
      prunes_.inc();
      state.dirty = true;
    }
  }
  if (opts_.refresh_on_tick) force_report_ = true;
  flush();  // fold + (re-)report everything the tick disturbed
}

}  // namespace tota::tuples
