// Node mobility models.
//
// The paper exercises TOTA under node movement (users with PDAs, robots,
// drag-and-drop in the emulator).  A MobilityModel integrates a node's
// position over discrete ticks; the network recomputes neighbourhoods
// after each tick and fires link up/down events.
#pragma once

#include <memory>
#include <optional>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/rng.h"

namespace tota::sim {

/// Per-node movement policy.  step() returns the new position after `dt`.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  virtual Vec2 step(Vec2 current, SimTime dt, Rng& rng) = 0;
};

/// Never moves.
class StaticMobility final : public MobilityModel {
 public:
  Vec2 step(Vec2 current, SimTime, Rng&) override { return current; }
};

/// Classic random-waypoint: pick a uniform target in the arena, travel at a
/// uniform speed in [min,max], pause, repeat.
class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(Rect arena, double min_speed_mps, double max_speed_mps,
                 SimTime pause = SimTime::zero());

  Vec2 step(Vec2 current, SimTime dt, Rng& rng) override;

 private:
  Rect arena_;
  double min_speed_;
  double max_speed_;
  SimTime pause_;

  std::optional<Vec2> target_;
  double speed_ = 0.0;
  SimTime pause_left_;
};

/// Travels toward explicit targets at a fixed speed; used to script "drag"
/// scenarios like the paper's emulator UI.  Idle when no target is set.
class WaypointTo final : public MobilityModel {
 public:
  explicit WaypointTo(double speed_mps) : speed_(speed_mps) {}

  void set_target(Vec2 target) { target_ = target; }
  [[nodiscard]] bool idle() const { return !target_.has_value(); }

  Vec2 step(Vec2 current, SimTime dt, Rng& rng) override;

 private:
  double speed_;
  std::optional<Vec2> target_;
};

/// Moves with an externally-set velocity; flocking controllers steer nodes
/// by writing this velocity each control period.
class VelocityMobility final : public MobilityModel {
 public:
  explicit VelocityMobility(Rect arena, double max_speed_mps)
      : arena_(arena), max_speed_(max_speed_mps) {}

  void set_velocity(Vec2 v);
  [[nodiscard]] Vec2 velocity() const { return velocity_; }

  Vec2 step(Vec2 current, SimTime dt, Rng& rng) override;

 private:
  Rect arena_;
  double max_speed_;
  Vec2 velocity_;
};

}  // namespace tota::sim
