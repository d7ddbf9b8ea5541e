#include "tota/tuple_space.h"

#include <algorithm>

namespace tota {

SpaceMetrics::SpaceMetrics(obs::MetricsRegistry& registry)
    : query_indexed(registry.counter("space.query.indexed")),
      query_scan(registry.counter("space.query.scan")),
      candidates(registry.counter("space.query.candidates")),
      matches(registry.counter("space.query.matches")),
      naive_candidates(registry.counter("space.query.naive_candidates")),
      plan_residual_evals(registry.counter("space.plan.residual_evals")) {}

void TupleSpace::bind_metrics(obs::MetricsRegistry& registry) {
  metrics_ = std::make_unique<SpaceMetrics>(registry);
}

std::vector<TupleSpace::Slot>::const_iterator TupleSpace::locate(
    const TupleUid& uid) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), uid,
      [](const Slot& slot, const TupleUid& key) { return slot.uid < key; });
}

std::size_t TupleSpace::bucket_index(const std::string& tag) const {
  std::size_t b = 0;
  while (b < by_type_.size() && by_type_[b].tag != tag) ++b;
  return b;
}

namespace {

/// Runs `consider` over the entries `at(0)`, `at(1)`, … `at(size() - 1)`
/// in order, until it returns false.  Each candidate costs three
/// dependent loads — entry, tuple, field vector — that miss the cache
/// once the node stores outgrow it, so they are prefetched one to three
/// candidates ahead to overlap the misses.  `size` and `at` are re-read
/// every step: `consider` runs caller code that may put into the space
/// and move every vector.
template <typename Size, typename At, typename Consider>
void walk(const Size& size, const At& at, const Consider& consider) {
  for (std::size_t i = 0; i < size(); ++i) {
    const std::size_t n = size();
    if (i + 3 < n) __builtin_prefetch(at(i + 3));
    if (i + 2 < n) __builtin_prefetch(at(i + 2)->tuple.get());
    if (i + 1 < n) {
      const wire::Record& content = at(i + 1)->tuple->content();
      if (!content.empty()) __builtin_prefetch(&content.field(0));
    }
    if (!consider(*at(i))) return;
  }
}

bool member_before(const std::pair<TupleUid, const TupleSpace::Entry*>& m,
                   const TupleUid& key) {
  return m.first < key;
}

}  // namespace

void TupleSpace::index_type(const TupleUid& uid, const Entry& entry) {
  const std::size_t b = bucket_index(entry.type_tag);
  if (b == by_type_.size()) by_type_.push_back({entry.type_tag, {}});
  TypeMembers& members = by_type_[b].members;
  members.emplace(
      std::lower_bound(members.begin(), members.end(), uid, member_before),
      uid, &entry);
}

void TupleSpace::unindex_type(const TupleUid& uid, const Entry& entry) {
  const std::size_t b = bucket_index(entry.type_tag);
  if (b == by_type_.size()) return;
  TypeMembers& members = by_type_[b].members;
  const auto it =
      std::lower_bound(members.begin(), members.end(), uid, member_before);
  if (it != members.end() && it->first == uid) members.erase(it);
}

void TupleSpace::set_propagated(const TupleUid& uid, bool propagated) {
  const auto it = std::lower_bound(propagated_.begin(), propagated_.end(), uid);
  const bool present = it != propagated_.end() && *it == uid;
  if (propagated && !present) propagated_.insert(it, uid);
  if (!propagated && present) propagated_.erase(it);
}

void TupleSpace::put(TupleHandle tuple, NodeId parent, bool propagated,
                     SimTime now) {
  const TupleUid uid = tuple->uid();
  std::string tag = tuple->type_tag();
  const auto pos = locate(uid);
  const bool inserted = pos == entries_.end() || pos->uid != uid;
  Entry* entry = nullptr;
  bool tag_changed = false;
  if (inserted) {
    entry = entries_.insert(pos, Slot{uid, std::make_unique<Entry>()})
                ->entry.get();
  } else {
    // A replacement reuses the Entry, so its address — held by the type
    // bucket and by callers across reentrant injects — stays valid.
    entry = pos->entry.get();
    tag_changed = entry->type_tag != tag;
    // To observers, a replacement that changes the type tag is an erase
    // of the old replica followed by an insert — a type-bucketed
    // continuous query on the old tag must see its member leave.
    if (tag_changed) {
      if (listener_) listener_(ChangeKind::kErased, *entry);
      unindex_type(uid, *entry);
    }
  }
  *entry = Entry{std::move(tuple), std::move(tag), parent, propagated, now};
  if (inserted || tag_changed) index_type(uid, *entry);
  set_propagated(uid, propagated);
  if (listener_) {
    listener_(inserted || tag_changed ? ChangeKind::kInserted
                                      : ChangeKind::kReplaced,
              *entry);
  }
}

const TupleSpace::Entry* TupleSpace::find(const TupleUid& uid) const {
  const auto it = locate(uid);
  return it == entries_.end() || it->uid != uid ? nullptr : it->entry.get();
}

TupleHandle TupleSpace::erase(const TupleUid& uid) {
  const auto it = locate(uid);
  if (it == entries_.end() || it->uid != uid) return nullptr;
  // Notified while the entry is still intact and indexed, so listeners
  // see the state being removed.
  if (listener_) listener_(ChangeKind::kErased, *it->entry);
  unindex_type(uid, *it->entry);
  set_propagated(uid, false);
  auto tuple = std::move(it->entry->tuple);
  entries_.erase(it);
  return tuple;
}

template <typename Fn>
void TupleSpace::match(const Pattern& pattern, Fn&& fn,
                       std::size_t* walk_length) const {
  const std::optional<std::string>& tag = pattern.type_tag();
  const std::size_t b = tag ? bucket_index(*tag) : 0;
  if (metrics_ != nullptr) {
    metrics_->naive_candidates.inc(
        static_cast<std::int64_t>(entries_.size()));
    (tag ? metrics_->query_indexed : metrics_->query_scan).inc();
  }
  // No bucket for the tag: no replica of that type, nothing to walk.
  if (tag && b == by_type_.size()) return;
  if (walk_length != nullptr) {
    *walk_length = tag ? by_type_[b].members.size() : entries_.size();
  }

  // The type is implied by the walk, so only fields are checked — against
  // the stored content, with no virtual call anywhere on this path.
  const bool check_fields = !pattern.constraints().empty();
  const auto consider = [&](const Entry& entry) -> bool {
    if (metrics_ != nullptr) metrics_->candidates.inc();
    if (check_fields) {
      if (metrics_ != nullptr) metrics_->plan_residual_evals.inc();
      if (!pattern.matches_fields(entry.tuple->content())) return true;
    }
    if (metrics_ != nullptr) metrics_->matches.inc();
    return fn(entry);
  };

  if (tag) {
    walk([&] { return by_type_[b].members.size(); },
         [&](std::size_t i) { return by_type_[b].members[i].second; },
         consider);
  } else {
    walk([&] { return entries_.size(); },
         [&](std::size_t i) { return entries_[i].entry.get(); }, consider);
  }
}

std::vector<TupleHandle> TupleSpace::read(const Pattern& pattern) const {
  std::vector<TupleHandle> out;
  std::size_t walk_length = 0;
  match(
      pattern,
      [&](const Entry& entry) {
        // The walk's length bounds the matches: one allocation.
        if (out.empty()) out.reserve(walk_length);
        out.push_back(entry.tuple);
        return true;
      },
      &walk_length);
  return out;
}

TupleHandle TupleSpace::read_one(const Pattern& pattern) const {
  TupleHandle out;
  match(pattern, [&](const Entry& entry) {
    out = entry.tuple;
    return false;  // first (lowest-uid) match wins
  });
  return out;
}

std::vector<TupleHandle> TupleSpace::take(const Pattern& pattern) {
  std::vector<TupleUid> uids;
  match(pattern, [&](const Entry& entry) {
    uids.push_back(entry.tuple->uid());
    return true;
  });
  std::vector<TupleHandle> out;
  out.reserve(uids.size());
  for (const auto& uid : uids) out.push_back(erase(uid));
  return out;
}

std::vector<TupleUid> TupleSpace::propagated_uids() const {
  return propagated_;
}

void TupleSpace::for_each(const std::function<void(const Entry&)>& fn) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) fn(*entries_[i].entry);
}

void TupleSpace::for_matching(
    const Pattern& pattern,
    const std::function<bool(const Entry&)>& fn) const {
  match(pattern, fn);
}

}  // namespace tota
