#include "sim/event_queue.h"

#include <limits>
#include <stdexcept>

namespace tota::sim {

namespace {

std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id); }
std::uint32_t generation_of(EventId id) {
  return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

EventId EventQueue::schedule_at(SimTime when, Action action,
                                std::uint64_t owner) {
  if (when < now_) {
    throw std::invalid_argument("cannot schedule event in the past");
  }
  std::uint32_t index = 0;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("EventQueue: too many pending events");
    }
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  slot.owner = owner;
  const EventId id = (EventId{slot.generation} << 32) | index;
  queue_.push(Entry{when, next_seq_++, id});
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_after(SimTime delay, Action action,
                                   std::uint64_t owner) {
  return schedule_at(now_ + delay, std::move(action), owner);
}

bool EventQueue::live(EventId id) const {
  const std::uint32_t index = slot_of(id);
  const std::uint32_t generation = generation_of(id);
  return generation != 0 && index < slots_.size() &&
         slots_[index].generation == generation;
}

EventQueue::Action EventQueue::release(EventId id) {
  Slot& slot = slots_[slot_of(id)];
  Action action = std::move(slot.action);
  slot.action = nullptr;
  slot.owner = 0;
  --live_count_;
  // Wrapping to 0 retires the slot: reusing it would repeat an id.
  if (++slot.generation != 0) free_.push_back(slot_of(id));
  return action;
}

void EventQueue::cancel(EventId id) {
  if (live(id)) release(id);
}

void EventQueue::cancel_owned(std::uint64_t owner) {
  if (owner == 0) return;
  // Only a pending event's slot carries a non-zero owner (release()
  // clears it), so a match is always live.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].owner != owner) continue;
    release((EventId{slots_[i].generation} << 32) | i);
  }
}

bool EventQueue::step() {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    queue_.pop();
    if (!live(top.id)) continue;  // cancelled
    Action action = release(top.id);
    now_ = top.when;
    action();
    return true;
  }
  return false;
}

std::optional<SimTime> EventQueue::next_event_time() {
  while (!queue_.empty()) {
    if (live(queue_.top().id)) return queue_.top().when;
    queue_.pop();  // cancelled — drop the stale entry
  }
  return std::nullopt;
}

void EventQueue::run_until(SimTime deadline) {
  while (!queue_.empty()) {
    // Skip cancelled entries without advancing time.
    if (!live(queue_.top().id)) {
      queue_.pop();
      continue;
    }
    if (queue_.top().when > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace tota::sim
