// The simulator: one world, N shards, N threads (N = 1 is sequential).
//
// ShardedSim partitions the world *spatially*: at seal() the bounding
// box of all node positions is cut into `shards` contiguous vertical
// strips, each strip owns its nodes and runs them on its own thread with
// its own EventQueue, its own Rng stream (Rng::stream(seed, shard)) and
// its own obs::Hub.  Radio interaction is local — a broadcast reaches
// only nodes within range — so a frame can cross a shard boundary no
// earlier than the radio's minimum one-hop latency.  That bound is the
// *conservative lookahead*: shards advance in lock-stepped epochs no
// longer than the lookahead, exchanging boundary-crossing deliveries
// ("mail") at the barrier between epochs, and no shard can ever receive
// an event in its past.  At one shard there are no threads, no barriers
// and one queue.  docs/SIM.md develops the full argument.
//
// Determinism contract: runs are bit-for-bit reproducible per
// (seed, shard_count).  Within an epoch each shard is a sequential
// deterministic simulator over private state; the only shared data is
// the Topology, which is immutable while shards run, and the mail
// outboxes, which are single-writer and drained between epochs in fixed
// shard order.  Changing the shard count re-partitions the Rng streams,
// so it changes the exact event timings — but not the converged TOTA
// state, which tests/test_shard.cc pins against the BFS oracle for
// 1/2/4 shards.
//
// Everything that changes the world's shape is a quiescent-point
// operation, run by the driver thread between epochs: spawning (before
// or after seal), despawning, teleports, wired-mode connect/disconnect,
// and the mobility models' moves, which happen once per kMobilityTick
// at an epoch boundary.  Mobility and random placement draw from one
// world Rng stream that depends on the seed alone, never on the shard
// count, and never touches the shard streams.
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
#include "net/fault.h"
#include "obs/hub.h"
#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/node.h"
#include "sim/radio.h"
#include "sim/topology.h"
#include "wire/buffer.h"

namespace tota::sim {

/// Mobility integration period: nodes with a MobilityModel move once per
/// tick, at an epoch boundary.
inline constexpr SimTime kMobilityTick = SimTime::from_millis(100);

struct ShardedParams {
  RadioParams radio;
  /// Wired ("Internet") mode: neighbourhood = explicit links managed with
  /// connect()/disconnect() instead of radio range (paper §4.1 — "in a
  /// wired scenario … the term is not related to the real reachability of
  /// a node, but rather on its addressability").  Radio latency/loss
  /// parameters still shape per-link delivery.
  bool wired = false;
  /// Latency between a topology change and the neighbour-up/down upcall,
  /// modelling beacon-based discovery.  Zero = instantaneous detection.
  SimTime link_detect_delay = SimTime::zero();
  std::uint64_t seed = 1;
  /// Adversity layer (net::FaultInjector): drop/duplicate/reorder/
  /// truncate/corrupt faults plus scheduled partitions, applied to every
  /// delivery on top of the radio model.  This is the one knob for
  /// injected adversity — `radio.loss_probability` stays the physical
  /// layer's loss.  The default (benign) plan creates no injector and
  /// draws nothing from the shard streams.
  net::FaultPlan fault;
  /// Shard (= worker thread) count.  1 = sequential, no threads, no
  /// barriers.  With more than one shard, radio.base_delay must be
  /// >= 1 µs: it is the conservative lookahead bound.
  std::uint32_t shards = 1;
};

class ShardedSim {
 public:
  explicit ShardedSim(ShardedParams params);
  ~ShardedSim();

  ShardedSim(const ShardedSim&) = delete;
  ShardedSim& operator=(const ShardedSim&) = delete;

  // --- population (quiescent points) ------------------------------------

  /// Adds a node, optionally with a mobility model.  Before seal() the
  /// node joins the partition seal() computes; after it, the node's
  /// owner is its strip of the frozen partition (clamped to the outer
  /// strips) and its link-up upcalls fire as for a move.  Ids are never
  /// reused.
  NodeId add_node(Vec2 position,
                  std::unique_ptr<MobilityModel> mobility = nullptr);

  /// Removes a node (crash or leave: neighbours observe only link loss).
  /// Its host gets no further upcalls and every timer scheduled for it
  /// through schedule() is cancelled.  No-op for unknown or removed ids.
  void remove_node(NodeId id);
  [[nodiscard]] bool alive(NodeId id) const { return topology_.contains(id); }

  /// Freezes the strip partition and node ownership, snapshots every
  /// node's neighbour set, schedules the initial link-up upcalls, and
  /// (for shards > 1) starts the worker threads.  Idempotent;
  /// run_until() calls it on first use.
  void seal();
  [[nodiscard]] bool sealed() const { return sealed_; }

  /// Installs / removes the software stack of a node (not owned).
  void attach(NodeId id, Host* host);
  void detach(NodeId id);

  // --- topology (quiescent points) --------------------------------------

  /// Teleports a node (the emulator's drag-and-drop); link up/down
  /// upcalls fire after link_detect_delay.  Ownership is static — the
  /// node keeps its home shard wherever it moves, which preserves
  /// determinism and costs only cross-shard mail.
  void move_node(NodeId id, Vec2 position);

  /// Wired-mode link management (throws in radio mode).  A node "knows
  /// the other node's IP address" — link events fire like radio links.
  void connect(NodeId a, NodeId b);
  void disconnect(NodeId a, NodeId b);

  /// Sets the velocity of a node using VelocityMobility; throws otherwise.
  /// The model is read only at mobility ticks, so the node's own
  /// reactions (a flocking controller) may call this during an epoch.
  void set_velocity(NodeId id, Vec2 velocity);
  /// Direct access to a node's mobility model (e.g. WaypointTo::set_target).
  [[nodiscard]] MobilityModel* mobility(NodeId id);

  /// Attaches a hardware profile (net/device_profile.h): duty-cycled
  /// radio, per-link MTU, tx latency scaling, gateway flag.  Profiles
  /// are read concurrently by shard threads during epochs.
  /// tx_delay_scale must be >= 1.0 when shards > 1 (it would undercut
  /// the conservative lookahead).  Worlds that never set a profile keep
  /// the exact pre-profile Rng streams.
  void set_profile(NodeId id, net::DeviceProfile profile);
  [[nodiscard]] const net::DeviceProfile& profile(NodeId id) const;

  // --- node-side services (used by emu::ShardPlatform) ------------------

  /// One-hop broadcast.  Same-shard receivers are scheduled directly;
  /// receivers owned by other shards become outbox mail exchanged at the
  /// next epoch barrier.  Loss, latency and faults are drawn from the
  /// *sender's* shard.
  void broadcast(NodeId from, wire::Bytes payload);

  /// Timer of node `id` on its owner shard's queue (safe from that
  /// shard's thread and from quiescent points); remove_node(id) cancels
  /// it if it is still pending.
  EventId schedule(NodeId id, SimTime delay, EventQueue::Action action);
  void cancel(NodeId id, EventId event);

  /// The owning shard's clock (== global time at quiescent points).
  [[nodiscard]] SimTime node_now(NodeId id) const;
  /// The owning shard's Rng stream (per-node Rngs fork from this when
  /// their stack is built).
  [[nodiscard]] Rng& shard_rng(NodeId id);
  /// The owning shard's metrics/trace hub (what a node's Middleware
  /// should record into).
  [[nodiscard]] obs::Hub& shard_hub(NodeId id);
  [[nodiscard]] Vec2 position(NodeId id) const {
    return topology_.position(id);
  }

  /// The world stream: random placement and mobility draw from it at
  /// quiescent points.  Depends on the seed only.
  [[nodiscard]] Rng& world_rng() { return world_rng_; }

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
  /// to topology().neighbors(id) between quiescent-point updates.  The
  /// node's host hears of changes link_detect_delay later.
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId id) const;
  [[nodiscard]] const ShardedParams& params() const { return params_; }

  /// Merges every shard hub's metrics (in shard order — deterministic)
  /// and then the coordinator's sim.shard.* metrics into `into`.
  void export_metrics(obs::MetricsRegistry& into) const;
  /// Records every shard tracer's surviving spans into `into`, ordered
  /// by time (shard order breaks ties).
  void export_trace(obs::Tracer& into) const;

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
    Shard(std::uint32_t index, std::uint32_t total, std::uint64_t seed,
          const net::FaultPlan& fault);

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
    /// The medium's adversity for this shard's senders; null when the
    /// plan is benign (the hot path then never touches it).  `channel`
    /// gives the injector this shard's clock, timers and a forked Rng.
    std::unique_ptr<tota::Platform> channel;
    std::unique_ptr<net::FaultInjector> fault;
  };

  struct NodeState {
    std::uint32_t owner = 0;
    Host* host = nullptr;
    std::vector<NodeId> neighbors;  // sorted
    std::unique_ptr<MobilityModel> mobility;
  };

  [[nodiscard]] NodeState& state(NodeId id) { return nodes_[id.value()]; }
  [[nodiscard]] const NodeState& state(NodeId id) const {
    return nodes_[id.value()];
  }
  [[nodiscard]] Shard& shard_of_node(NodeId id) {
    return *shards_[state(id).owner];
  }
  [[nodiscard]] bool known(NodeId id) const {
    return id.value() != 0 && id.value() < next_node_;
  }

  /// The strip of the frozen partition that x falls in.
  [[nodiscard]] std::uint32_t strip_of(double x) const;
  /// Brings `id`'s neighbour set (and its neighbours' sets) up to date
  /// with the topology, scheduling one upcall per changed link end.
  void relink(NodeId id);
  /// Moves every node that has a mobility model by one tick.
  void mobility_step();
  /// Runs the shards to `deadline` in lookahead epochs.
  void advance(SimTime deadline);

  /// The radio's verdict on one receiver of a `bytes`-long frame sent by
  /// a node with profile `sender` (null: no profiles in this world):
  /// the delivery delay, or nullopt when the MTU, the loss draw or the
  /// receiver's duty cycle drops it.  Draws from `s`'s stream.
  std::optional<SimTime> link_delay(Shard& s, const net::DeviceProfile* sender,
                                    NodeId to, std::size_t bytes);
  /// Schedules one delivery `delay` from now: on `s` when it owns `to`,
  /// else as mail for the owner.
  void post(Shard& s, NodeId from, NodeId to, SimTime delay,
            std::shared_ptr<const wire::Bytes> payload);
  void deliver(NodeId from, NodeId to, const wire::Bytes& payload);
  /// Drains every outbox into the destination queues in fixed
  /// (destination, source) shard order.  Quiescent points only.
  void ingest_mail();
  void notify_link(NodeId node, NodeId neighbor, bool up);
  void worker(std::uint32_t index);

  ShardedParams params_;
  Radio radio_;
  Topology topology_;
  Rng world_rng_;
  std::vector<NodeState> nodes_;  // indexed by NodeId value; slot 0 unused
  /// Per-node hardware profiles; absent = full-power default.  Mutated
  /// only at quiescent points, read concurrently (read-only) by shard
  /// threads during epochs.
  std::unordered_map<NodeId, net::DeviceProfile> profiles_;
  std::uint64_t next_node_ = 1;
  bool sealed_ = false;
  /// The frozen strip partition: x range of the population at seal().
  double strip_min_x_ = 0.0;
  double strip_width_ = 0.0;
  /// Next mobility move; set once the first node with a model exists.
  std::optional<SimTime> next_tick_;
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
