// Test double for the Platform interface: captures broadcasts, runs
// scheduled actions on demand, and lets tests control time and position.
#pragma once

#include <unordered_set>
#include <utility>
#include <vector>

#include "tota/platform.h"
#include "wire/frame.h"

namespace tota::testing {

class FakePlatform final : public Platform {
 public:
  struct ScheduledAction {
    TimerId id;
    SimTime when;
    std::function<void()> action;
  };

  void broadcast(wire::Bytes payload) override {
    broadcasts.push_back(std::move(payload));
  }

  [[nodiscard]] SimTime now() const override { return time; }

  TimerId schedule(SimTime delay, std::function<void()> action) override {
    scheduled.push_back({next_timer_++, time + delay, std::move(action)});
    return scheduled.back().id;
  }

  void cancel(TimerId id) override { cancelled_.insert(id); }

  [[nodiscard]] Vec2 position() const override { return pos; }

  [[nodiscard]] Rng& rng() override { return rng_; }

  /// Runs (and clears) every pending scheduled action in the order it
  /// was scheduled.  Actions cancelled before their turn — including by
  /// earlier actions of the same batch — are skipped.
  void run_scheduled() {
    auto pending = std::move(scheduled);
    scheduled.clear();
    for (auto& entry : pending) {
      if (cancelled_.erase(entry.id) > 0) continue;
      if (entry.when > time) time = entry.when;
      entry.action();
    }
  }

  /// Pending (non-cancelled) action count.
  [[nodiscard]] std::size_t pending_scheduled() const {
    std::size_t n = 0;
    for (const auto& entry : scheduled) n += cancelled_.count(entry.id) == 0;
    return n;
  }

  /// Pops the oldest captured broadcast.
  wire::Bytes pop_broadcast() {
    wire::Bytes front = std::move(broadcasts.front());
    broadcasts.erase(broadcasts.begin());
    return front;
  }

  std::vector<wire::Bytes> broadcasts;
  std::vector<ScheduledAction> scheduled;
  SimTime time;
  Vec2 pos;

 private:
  Rng rng_{12345};
  TimerId next_timer_ = 1;
  std::unordered_set<TimerId> cancelled_;
};

}  // namespace tota::testing
