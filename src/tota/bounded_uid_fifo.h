// Bounded uid-keyed store with FIFO half-eviction — the memory-safety
// primitive behind the engine's pass-through filter and repair tracker.
//
// "Really simple devices" (paper §7) cannot keep unbounded state, so both
// users cap their entry count: when an insert pushes the store past its
// capacity, the oldest half is evicted in insertion order.  Evicting half
// (not one) amortizes the walk and keeps recently-seen uids — the ones
// duplicates actually arrive for — resident.
//
// Entries can also be erased externally (a repair completing removes its
// uid from the tracker).  The insertion-order log is not compacted on
// such erases; instead each entry carries the sequence number of its
// insertion, and the eviction walk skips log slots whose sequence no
// longer matches the live entry — a stale slot (erased, or erased and
// later re-inserted) neither counts toward the eviction quota nor can
// evict the newer entry that reused its uid.  (The pre-extraction code
// counted stale slots against the quota, so live entries were evicted
// well before the configured capacity; see the regression test in
// tests/test_engine.cc.)
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace tota {

template <typename Value>
class BoundedUidFifo {
 public:
  explicit BoundedUidFifo(std::size_t capacity) : capacity_(capacity) {}

  /// Inserts `uid` → `value`; returns false (and leaves the stored value
  /// untouched) when the uid is already present.
  bool insert(const TupleUid& uid, Value value = Value{}) {
    const auto [it, fresh] = entries_.try_emplace(
        uid, Slot{std::move(value), next_seq_});
    if (!fresh) return false;
    order_.emplace_back(uid, next_seq_++);
    maybe_evict();
    return true;
  }

  [[nodiscard]] bool contains(const TupleUid& uid) const {
    return entries_.count(uid) > 0;
  }

  /// The stored value, or nullptr when absent.
  [[nodiscard]] const Value* find(const TupleUid& uid) const {
    const auto it = entries_.find(uid);
    return it == entries_.end() ? nullptr : &it->second.value;
  }

  /// External removal (e.g. a repair completed).  The order log keeps a
  /// stale slot; eviction skips it.  Returns true when the uid was live.
  bool erase(const TupleUid& uid) { return entries_.erase(uid) > 0; }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    Value value;
    std::uint64_t seq;  // insertion sequence; pairs with the order log
  };

  void maybe_evict() {
    if (entries_.size() <= capacity_) return;
    std::size_t quota = entries_.size() / 2;
    std::size_t walked = 0;
    while (quota > 0 && walked < order_.size()) {
      const auto& [uid, seq] = order_[walked++];
      const auto it = entries_.find(uid);
      if (it != entries_.end() && it->second.seq == seq) {
        entries_.erase(it);
        --quota;  // only a live eviction spends quota
      }
    }
    order_.erase(order_.begin(),
                 order_.begin() + static_cast<std::ptrdiff_t>(walked));
  }

  std::unordered_map<TupleUid, Slot> entries_;
  // Insertion order, oldest first.  A vector, not a deque: an empty one
  // allocates nothing, and every engine owns two that mostly stay empty.
  std::vector<std::pair<TupleUid, std::uint64_t>> order_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tota
