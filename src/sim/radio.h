// Radio model: broadcast medium with disc connectivity.
//
// Mirrors the paper's prototype, which sends tuples "through multicast
// sockets to all the nodes in the one-hop neighbor[hood]" over 802.11b in
// ad-hoc mode: one transmission reaches every node within range.  The
// model adds per-hop latency (propagation + MAC contention jitter) and an
// independent per-receiver loss probability.
#pragma once

#include "common/clock.h"
#include "common/rng.h"

namespace tota::sim {

struct RadioParams {
  /// Communication range in metres (disc model).
  double range_m = 100.0;
  /// Fixed per-hop latency component.
  SimTime base_delay = SimTime::from_millis(2);
  /// Uniform extra latency in [0, jitter] modelling MAC contention.
  SimTime jitter = SimTime::from_millis(3);
  /// Probability that an individual receiver misses a broadcast frame.
  double loss_probability = 0.0;
};

/// Stateless-per-call helper that samples delivery outcomes.
class Radio {
 public:
  explicit Radio(RadioParams params) : params_(params) {}

  [[nodiscard]] const RadioParams& params() const { return params_; }
  [[nodiscard]] double range() const { return params_.range_m; }

  /// Samples whether a given receiver gets the frame.
  bool delivered(Rng& rng) const {
    return !rng.chance(params_.loss_probability);
  }

  /// Samples the end-to-end one-hop delay.
  SimTime delay(Rng& rng) const {
    SimTime d = params_.base_delay;
    if (params_.jitter.micros() > 0) {
      d += SimTime(static_cast<std::int64_t>(
          rng.uniform() * static_cast<double>(params_.jitter.micros())));
    }
    return d;
  }

 private:
  RadioParams params_;
};

}  // namespace tota::sim
