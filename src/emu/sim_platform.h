// SimPlatform — binds a TOTA Middleware to the network simulator.
//
// Implements the Platform interface (broadcast / clock / timers / location
// sensor / randomness) on top of sim::Network.  Scheduled actions are
// guarded by an aliveness token so a node can be torn down (churn!) while
// its timers are still in flight.
#pragma once

#include <memory>

#include "sim/network.h"
#include "tota/platform.h"

namespace tota::emu {

class SimPlatform final : public Platform {
 public:
  SimPlatform(sim::Network& net, NodeId id)
      : net_(net), id_(id), rng_(net.rng().fork()) {}

  ~SimPlatform() override { *alive_ = false; }

  SimPlatform(const SimPlatform&) = delete;
  SimPlatform& operator=(const SimPlatform&) = delete;

  void broadcast(wire::Bytes payload) override {
    net_.broadcast(id_, std::move(payload));
  }

  [[nodiscard]] SimTime now() const override { return net_.now(); }

  TimerId schedule(SimTime delay, std::function<void()> action) override {
    // sim::EventQueue ids start at 1, so they double as TimerIds directly.
    return net_.schedule(delay, [alive = alive_, action = std::move(action)] {
      if (*alive) action();
    });
  }

  void cancel(TimerId id) override { net_.cancel(id); }

  [[nodiscard]] Vec2 position() const override {
    if (net_.alive(id_)) last_position_ = net_.position(id_);
    return last_position_;
  }

  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  sim::Network& net_;
  NodeId id_;
  Rng rng_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  mutable Vec2 last_position_;
};

}  // namespace tota::emu
