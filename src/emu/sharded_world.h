// ShardedWorld — the headless emulator (paper §4.2).
//
// "Since the effective testing of TOTA would require a larger number of
// devices, we have implemented a graphic emulator to analyze TOTA behavior
// in presence of hundreds of nodes."  This is that emulator, headless and
// deterministic: one full TOTA Middleware per node, scheduled by
// sim::ShardedSim, plus scenario builders (grids, random deployments,
// churn) and the drag-and-drop equivalent (mobility models, teleports).
// At one shard it is a sequential simulator; with more, the world is
// split into per-thread shards that advance in conservative-lookahead
// epochs (docs/SIM.md), bit-for-bit reproducibly per
// (seed, shard_count), up to 100k-node worlds.
//
// Build phase vs run phase:
//
//   ShardedWorld w(opts);            // opts.net.shards = thread count
//   auto ids = w.spawn_grid(224, 224, 80.0);
//   w.seal();                        // or implied by the first run_for/mw
//   w.mw(ids[0]).inject(...);
//   w.run_for(SimTime::from_seconds(5));
//
// Nodes spawned before seal() have their stacks built there, in node-id
// order; nodes spawned later are built on the spot and join the frozen
// partition.  Middleware access (mw(), read/inject/subscribe) and every
// change to the world's shape (spawn, despawn, move_node, connect) are
// quiescent-point operations: legal from the driver thread between
// run_for calls, never from inside a reaction.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "emu/host_adapter.h"
#include "sim/shard.h"
#include "tota/middleware.h"

namespace tota::emu {

/// Binds a Middleware to its owner shard: timers and broadcasts go to
/// the shard's EventQueue, randomness comes from a per-node fork of the
/// shard's Rng stream.
class ShardPlatform final : public Platform {
 public:
  ShardPlatform(sim::ShardedSim& sim, NodeId id)
      : sim_(sim), id_(id), rng_(sim.shard_rng(id).fork()) {}

  ShardPlatform(const ShardPlatform&) = delete;
  ShardPlatform& operator=(const ShardPlatform&) = delete;

  void broadcast(wire::Bytes payload) override {
    sim_.broadcast(id_, std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return sim_.node_now(id_); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return sim_.schedule(id_, delay, std::move(action));
  }
  void cancel(TimerId id) override { sim_.cancel(id_, id); }
  [[nodiscard]] Vec2 position() const override { return sim_.position(id_); }
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  sim::ShardedSim& sim_;
  NodeId id_;
  Rng rng_;
};

struct ShardedWorldOptions {
  sim::ShardedParams net;
  MaintenanceOptions maintenance;
};

class ShardedWorld {
 public:
  using Options = ShardedWorldOptions;

  explicit ShardedWorld(Options options = {});

  // --- population -------------------------------------------------------

  /// Creates a node (and, once sealed, its middleware) at `position`;
  /// optionally with a mobility model.
  NodeId spawn(Vec2 position,
               std::unique_ptr<sim::MobilityModel> mobility = nullptr);
  /// rows × cols grid with the given spacing, anchored at `origin`.
  /// Spacing at or below the radio range yields a connected 8/4-neighbour
  /// mesh.
  std::vector<NodeId> spawn_grid(int rows, int cols, double spacing,
                                 Vec2 origin = {});
  /// `n` nodes uniformly random in `arena`, placed with the world Rng
  /// stream; `mobility_factory` (optional) builds each node's mobility
  /// model from the same stream.
  std::vector<NodeId> spawn_random(
      int n, Rect arena,
      const std::function<std::unique_ptr<sim::MobilityModel>(Rng&)>&
          mobility_factory = nullptr);
  /// Tears the node down (crash/leave — neighbours just see link loss);
  /// none of its pending timers fires afterwards.
  void despawn(NodeId id);

  /// Freezes the partition and builds the middleware stack of every
  /// node spawned so far.  Idempotent; implied by run_*/mw().
  void seal();

  // --- access (quiescent points) ----------------------------------------

  [[nodiscard]] Middleware& mw(NodeId id);
  [[nodiscard]] const Middleware& mw(NodeId id) const;
  [[nodiscard]] sim::ShardedSim& net() { return sim_; }
  [[nodiscard]] const sim::ShardedSim& net() const { return sim_; }
  [[nodiscard]] std::vector<NodeId> nodes() const { return sim_.nodes(); }

  /// Teleports a node (the scripted churn primitive).
  void move_node(NodeId id, Vec2 position) { sim_.move_node(id, position); }

  /// Per-node hardware heterogeneity (net/device_profile.h); quiescent
  /// points only.
  void set_profile(NodeId id, net::DeviceProfile profile) {
    sim_.set_profile(id, profile);
  }

  /// Deterministic merged view of every shard's metrics plus the
  /// scheduler's sim.shard.* counters.
  void export_metrics(obs::MetricsRegistry& into) const {
    sim_.export_metrics(into);
  }
  /// export_metrics() into a fresh registry.
  [[nodiscard]] obs::MetricsRegistry metrics() const {
    obs::MetricsRegistry merged;
    sim_.export_metrics(merged);
    return merged;
  }

  // --- time -------------------------------------------------------------

  [[nodiscard]] SimTime now() const { return sim_.now(); }
  void run_for(SimTime duration) {
    seal();
    sim_.run_for(duration);
  }
  void run_until(SimTime deadline) {
    seal();
    sim_.run_until(deadline);
  }

 private:
  struct NodeCell {
    std::unique_ptr<ShardPlatform> platform;
    std::unique_ptr<Middleware> middleware;
    std::unique_ptr<HostAdapter> adapter;
  };

  /// Builds `id`'s middleware stack and attaches it.
  void build(NodeId id);

  Options options_;
  sim::ShardedSim sim_;
  std::vector<NodeId> pending_;   // spawned, stack not built yet
  std::vector<NodeCell> cells_;   // indexed by NodeId value; slot 0 unused
  bool built_ = false;
};

}  // namespace tota::emu
