// Deterministic discrete-event scheduler.
//
// Events fire in (time, insertion-sequence) order, so two events scheduled
// for the same instant always run in the order they were scheduled — this
// removes a whole class of flaky-simulation bugs and makes every run
// bit-for-bit reproducible.
//
// Actions live in a slot table: a vector of reusable slots plus a free
// list, so scheduling an event allocates no bookkeeping node once the
// table has grown to the peak number of pending events.  The heap keeps
// only (when, seq, id).  An EventId packs the slot index (low 32 bits)
// with that slot's generation (high 32 bits, starting at 1); a slot's
// generation advances every time it is released, so a stale id — one
// whose event fired or was cancelled — no longer matches and cancelling
// it leaves the slot's next tenant alone.  Ids are never 0 and never
// repeat: a slot whose generation would wrap is retired, not reused.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/clock.h"

namespace tota::sim {

/// Handle to a scheduled event, usable to cancel it.  Never 0.
using EventId = std::uint64_t;

class EventQueue {
 public:
  using Action = std::function<void()>;

  /// Schedules `action` at absolute time `when` (must be >= now()).
  /// A non-zero `owner` tags the event for cancel_owned().
  EventId schedule_at(SimTime when, Action action, std::uint64_t owner = 0);

  /// Schedules `action` `delay` after the current time.
  EventId schedule_after(SimTime delay, Action action,
                         std::uint64_t owner = 0);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);

  /// Cancels every pending event tagged with `owner` (non-zero): the
  /// simulator's despawn, which must silence all of a node's timers.
  /// Linear in slot_count().
  void cancel_owned(std::uint64_t owner);

  /// Runs events until the queue is empty or the next event is after
  /// `deadline`; leaves now() == deadline.
  void run_until(SimTime deadline);

  /// Runs a single event if one is pending; returns false when empty.
  bool step();

  /// Fire time of the earliest live event, or nullopt when empty.  The
  /// sharded scheduler's epoch planner uses this to jump idle stretches
  /// instead of stepping lookahead-sized windows through them.  Non-const
  /// because it prunes cancelled entries off the top of the heap (no live
  /// event is touched).
  [[nodiscard]] std::optional<SimTime> next_event_time();

  [[nodiscard]] SimTime now() const { return now_; }
  /// Events scheduled and neither fired nor cancelled.
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  /// Action slots allocated so far, free ones included: the peak number
  /// of events pending at once.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Action action;
    std::uint64_t owner = 0;       // cancel_owned() tag; 0 = untagged
    std::uint32_t generation = 1;  // 0 = retired
  };

  /// True while the event `id` names is pending.
  [[nodiscard]] bool live(EventId id) const;
  /// Takes a live event's action out of its slot and frees the slot.
  Action release(EventId id);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  // Cancelled events leave their heap entry behind; it is skipped when
  // popped because its id no longer matches the slot's generation.
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_count_ = 0;
};

}  // namespace tota::sim
