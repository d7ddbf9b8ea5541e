// Sharded parallel simulator: one world, N shards, N threads.
//
// sim::Network runs everything through a single EventQueue on one thread,
// which caps worlds at a few thousand nodes.  ShardedSim partitions the
// world *spatially*: the bounding box of all node positions is cut into
// `shards` contiguous vertical strips, each strip owns its nodes and runs
// them on its own thread with its own EventQueue, its own Rng stream
// (Rng::stream(seed, shard)) and its own obs::Hub.  Radio interaction is
// local — a broadcast reaches only nodes within range — so a frame can
// cross a shard boundary no earlier than the radio's minimum one-hop
// latency.  That bound is the
// *conservative lookahead*: shards advance in lock-stepped epochs no
// longer than the lookahead, exchanging boundary-crossing deliveries
// ("mail") at the barrier between epochs, and no shard can ever receive
// an event in its past.  docs/SIM.md develops the full argument.
//
// Determinism contract: runs are bit-for-bit reproducible per
// (seed, shard_count).  Within an epoch each shard is a sequential
// deterministic simulator over private state; the only shared data is
// the Topology, which is immutable while shards run (population and
// moves are quiescent-point operations), and the mail outboxes, which
// are single-writer and drained between epochs in fixed shard order.
// Changing the shard count re-partitions the Rng streams, so it changes
// the exact event timings — but not the converged TOTA state, which
// tests/test_shard.cc pins against the BFS oracle for 1/2/4 shards.
//
// What ShardedSim deliberately does not do (use sim::Network instead):
// mobility models, wired mode, fault injection, despawn.  Population is
// frozen at seal(); churn is expressed with move_node() at quiescent
// points, exactly like the emulator's drag-and-drop teleports.
#pragma once

#include <barrier>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/device_profile.h"
#include "obs/hub.h"
#include "sim/event_queue.h"
#include "sim/node.h"
#include "sim/radio.h"
#include "sim/topology.h"
#include "wire/buffer.h"

namespace tota::sim {

struct ShardedParams {
  RadioParams radio;
  /// Latency between a topology change and the neighbour-up/down upcall.
  SimTime link_detect_delay = SimTime::zero();
  std::uint64_t seed = 1;
  /// Shard (= worker thread) count.  1 = sequential, no threads, no
  /// barriers — the degenerate case used by the scaling curve's baseline.
  /// With more than one shard, radio.base_delay must be >= 1 µs: it is
  /// the conservative lookahead bound.
  std::uint32_t shards = 1;
};

class ShardedSim {
 public:
  explicit ShardedSim(ShardedParams params);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // --- population (build phase) -----------------------------------------

  /// Adds a node.  Only valid before seal(); the sharded world's
  /// population is frozen once the partition is computed.
  NodeId add_node(Vec2 position);

  /// Freezes the population: computes the strip partition and node
  /// ownership, snapshots every node's neighbour set, schedules the
  /// initial link-up upcalls, and (for shards > 1) starts the worker
  /// threads.  Idempotent; run_until() calls it on first use.
  void seal();
  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Installs / removes the software stack of a node (not owned).
  void attach(NodeId id, Host* host);
  void detach(NodeId id);

  // --- topology (quiescent points only) ---------------------------------

  /// Teleports a node; link up/down upcalls fire after link_detect_delay.
  /// Ownership is static — the node keeps its home shard wherever it
  /// moves, which preserves determinism and costs only cross-shard mail.
  /// Must be called between run_until() calls (never from node code).
  void move_node(NodeId id, Vec2 position);

  /// Attaches a hardware profile (net/device_profile.h); quiescent points
  /// only — profiles are read concurrently by shard threads during
  /// epochs.  tx_delay_scale must be >= 1.0 when shards > 1 (it would
  /// undercut the conservative lookahead).  Worlds that never set a
  /// profile keep the exact pre-profile Rng streams.
  void set_profile(NodeId id, net::DeviceProfile profile);
  [[nodiscard]] const net::DeviceProfile& profile(NodeId id) const;

  // --- node-side services (used by emu::ShardPlatform) ------------------

  /// One-hop broadcast.  Same-shard receivers are scheduled directly;
  /// receivers owned by other shards become outbox mail exchanged at the
  /// next epoch barrier.  Loss and latency are drawn from the *sender's*
  /// shard stream.
  void broadcast(NodeId from, wire::Bytes payload);

  /// Timer on the owning shard's queue (safe from that shard's thread
  /// and from quiescent points).
  EventId schedule(NodeId id, SimTime delay, EventQueue::Action action);
  void cancel(NodeId id, EventId event);

  /// The owning shard's clock (== global time at quiescent points).
  [[nodiscard]] SimTime node_now(NodeId id) const;
  /// The owning shard's Rng stream (per-node Rngs fork from this during
  /// the build phase).
  [[nodiscard]] Rng& shard_rng(NodeId id);
  /// The owning shard's metrics/trace hub (what a node's Middleware
  /// should record into).
  [[nodiscard]] obs::Hub& shard_hub(NodeId id);
  [[nodiscard]] Vec2 position(NodeId id) const {
    return topology_.position(id);
  }

  // --- time (driver thread, quiescent) ----------------------------------

  [[nodiscard]] SimTime now() const;
  void run_until(SimTime deadline);
  void run_for(SimTime duration) { run_until(now() + duration); }

  // --- introspection ----------------------------------------------------

  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] std::uint32_t shard_count() const;
  /// Owner shard of a node (valid after seal()).
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const;
  [[nodiscard]] std::vector<NodeId> nodes() const { return topology_.nodes(); }
  /// Current maintained neighbour set (sorted); ground truth, identical
  /// to topology().neighbors(id) between quiescent-point updates.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId id) const;
  [[nodiscard]] const ShardedParams& params() const { return params_; }

  /// Merges every shard hub's metrics (in shard order — deterministic)
  /// and then the coordinator's sim.shard.* metrics into `into`.
  void export_metrics(obs::MetricsRegistry& into) const;

 private:
  /// A cross-shard delivery buffered until the next epoch barrier.
  struct Mail {
    SimTime when;  // absolute land time (>= the barrier it crosses)
    NodeId from;
    NodeId to;
    std::shared_ptr<const wire::Bytes> payload;
  };

  /// Everything one worker thread owns.  Only the outboxes are ever read
  /// by another thread, and only between epochs (barrier-synchronised).
  struct Shard {
    Shard(std::uint32_t index, std::uint32_t total, std::uint64_t seed);

    std::uint32_t index;
    EventQueue events;
    Rng rng;
    obs::Hub hub;
    /// outbox[d]: mail for shard d generated during the current epoch.
    std::vector<std::vector<Mail>> outbox;
    obs::Counter& radio_tx;
    obs::Counter& radio_tx_bytes;
    obs::Counter& radio_rx;
    obs::Counter& radio_lost;
    obs::Counter& link_up;
    obs::Counter& link_down;
    obs::Counter& mail_out;
    obs::Counter& mtu_drop;
    obs::Counter& duty_drop;
  };

  struct NodeState {
    std::uint32_t owner = 0;
    Host* host = nullptr;
    std::vector<NodeId> neighbors;  // sorted
  };

  [[nodiscard]] NodeState& state(NodeId id) { return nodes_[id.value()]; }
  [[nodiscard]] const NodeState& state(NodeId id) const {
    return nodes_[id.value()];
  }
  [[nodiscard]] Shard& shard_of_node(NodeId id) {
    return *shards_[state(id).owner];
  }

  void deliver(NodeId from, NodeId to, const wire::Bytes& payload);
  /// Drains every outbox into the destination queues in fixed
  /// (destination, source) shard order.  Quiescent points only.
  void ingest_mail();
  void notify_link(NodeId node, NodeId neighbor, bool up);
  void worker(std::uint32_t index);

  ShardedParams params_;
  Radio radio_;
  Topology topology_;
  std::vector<NodeState> nodes_;  // indexed by NodeId value; slot 0 unused
  /// Per-node hardware profiles; absent = full-power default.  Mutated
  /// only at quiescent points, read concurrently (read-only) by shard
  /// threads during epochs.
  std::unordered_map<NodeId, net::DeviceProfile> profiles_;
  std::uint64_t next_node_ = 1;
  bool sealed_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Coordinator-side observability (merged after the shard hubs).
  obs::Hub hub_;
  obs::Counter& epochs_;
  obs::Counter& barrier_waits_;

  // Parallel epoch engine (shards > 1 only).  epoch_end_ is written by
  // the driver before it arrives at epoch_start_, and the barrier's
  // completion orders that write before any worker reads it.
  SimTime epoch_end_{};
  bool stop_ = false;
  std::unique_ptr<std::barrier<>> epoch_start_;
  std::unique_ptr<std::barrier<>> epoch_done_;
  std::vector<std::thread> workers_;
};

}  // namespace tota::sim
