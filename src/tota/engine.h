// TOTA ENGINE — the propagation and maintenance core of one node.
//
// Responsibilities (paper Fig. 2): keep the neighbour table, send tuples
// injected locally, apply the propagation rule of received tuples and
// re-propagate them, and keep the distributed structures coherent when
// the topology changes.  The engine composes four extracted units:
//
//   wire::Frame               (wire/frame.h)        frame envelope
//   TupleSpace                (tuple_space.h)       indexed replica store
//                                                   (type/propagated
//                                                   indexes, uid order)
//   NeighborValueTable        (neighbor_table.h)    justification oracle
//   HoldDownTable             (hold_down.h)         anti-count-to-infinity
//   BoundedUidFifo            (bounded_uid_fifo.h)  pass-through filter,
//                                                   repair tracker
//
// and is implemented across three translation units: engine.cc (the
// propagation pipeline), engine_rx.cc (header-first frame receive), and
// engine_maintenance.cc (topology-change repair).
//
// Propagation pipeline for a copy arriving from `from` with travelled
// hop-count h (h = 0 for local injection):
//   0. duplicate resolution         uid already stored and the replica
//                                   not superseded_by(h)? → drop
//   1. decide_enter(ctx)?           no → drop
//   2. change_content(ctx)          per-hop content mutation
//   3. repeat filters               (held down? pass-through already
//                                    seen?)
//   4. decide_store(ctx)?           yes → replica into local space
//   5. apply_effects(ctx)           effectful tuples edit the node
//   6. publish kTupleArrived        subscriptions fire
//   7. decide_propagate(ctx)?       yes → broadcast to neighbours
//
// For a received copy, step 0 runs on the TUPLE frame's header alone —
// type tag, uid, hop (TupleHeader) — with the one TupleSpace lookup of
// the receive, together with the maintenance bookkeeping below, which
// asks the stored replica's class whether the tuple is maintained.  The
// rest of the body is decoded once, and only for a copy that survives
// step 0.  Most delivered copies of a flood are duplicates, so most
// frames are never decoded past their header.  Nor is the decoded copy
// cloned: a stored copy becomes the shared replica after step 5.
//
// Self-maintenance uses *value justification*: because every propagation
// is a broadcast, a node overhears the replica values its neighbours
// hold (NeighborValueTable).  A stored replica (other than at its
// source) is justified while some current neighbour holds the same tuple
// with a strictly smaller hop value — i.e. while a shorter support chain
// towards the source exists next door.  When a link breaks or a
// neighbour retracts/stretches, replicas that lose justification are
// removed and announce their removal (RETRACT), cascading the check
// outward; surviving justified neighbours answer a RETRACT by
// re-announcing their replica, which rebuilds correct values in the
// orphaned region.  Justification-by-value (rather than a parent
// pointer) means the minimum-valued replica of a region cut off from its
// source never has a justifier, so orphan regions drain; the hold-down
// (HoldDownTable) stops transient heals from re-seeding them while they
// do: after retracting a replica, a node refuses to reinstall the same
// tuple at a hop value >= the removed one until `hold_down` elapses,
// then broadcasts a PROBE that surviving justified holders answer.
// Together, justification + hold-down + probe give convergence without
// the count-to-infinity ratchet of naive distance-vector repair.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "obs/hub.h"
#include "tota/bounded_uid_fifo.h"
#include "tota/digest.h"
#include "tota/engine_metrics.h"
#include "tota/events.h"
#include "tota/hold_down.h"
#include "tota/maintenance.h"
#include "tota/neighbor_table.h"
#include "tota/platform.h"
#include "tota/tuple.h"
#include "tota/tuple_space.h"
#include "wire/frame.h"

namespace tota {

class Engine final : public SpaceOps {
 public:
  /// `hub` receives this engine's metrics and trace spans; nullptr
  /// selects obs::default_hub().  The hub must outlive the engine.
  Engine(NodeId self, Platform& platform, TupleSpace& space, EventBus& bus,
         MaintenanceOptions maintenance = {}, obs::Hub* hub = nullptr);

  /// Cancels every timer this engine still has pending on the platform,
  /// so none can fire into a destroyed engine.
  ~Engine();

  /// SpaceOps: removal that fires kTupleRemoved, available to effectful
  /// tuples through Context::ops.
  std::vector<TupleHandle> take_local(const Pattern& pattern) override;

  // --- application-facing (used by the Middleware facade) ---------------

  /// Injects a locally-created tuple: assigns its uid and runs the
  /// propagation pipeline with hop 0.  Returns the assigned uid.
  TupleUid inject(std::unique_ptr<Tuple> tuple);

  // --- platform-facing upcalls ------------------------------------------

  /// The receive path: parses the frame envelope and, for TUPLE frames,
  /// resolves duplicates on the tuple header before the body (step 0 of
  /// the pipeline above).  The contract:
  ///   - every TUPLE frame's header is validated: type tag, uid, hop in
  ///     [0, 2^24], and a tag equal to the stored replica's when the uid
  ///     is stored (uids are unique per injection, so only corruption
  ///     breaks that);
  ///   - the body is decoded, to the last byte, whenever the copy can
  ///     enter (no replica of its uid, or one it supersedes);
  ///   - a damaged body on a copy that cannot enter is never read.
  /// Malformed input that is read counts a decode failure and stores,
  /// sends and publishes nothing; a damaged body behind a valid header
  /// keeps the header's maintenance bookkeeping.
  void on_datagram(NodeId from, std::span<const std::uint8_t> payload);

  void on_neighbor_up(NodeId neighbor);
  void on_neighbor_down(NodeId neighbor);

  // --- anti-entropy (engine_sync.cc) -------------------------------------

  /// Digest of this node's propagated tuple set with `buckets` hash
  /// buckets (see tota/digest.h).
  [[nodiscard]] StoreDigest digest(std::uint32_t buckets) const;

  /// Compares `remote` (a neighbour's digest) against the local store
  /// and re-broadcasts every propagated tuple in a differing bucket —
  /// one-way push resync, O(diff) in expectation.  Returns the number of
  /// tuples re-sent (counted under net.sync.resend).
  int on_digest(NodeId from, const StoreDigest& remote);

  // --- introspection -----------------------------------------------------

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const std::vector<NodeId>& neighbors() const {
    return neighbors_;
  }
  /// The observability hub this engine records into — node-level
  /// runtimes built on top of the engine (tuples/aggregator.h) register
  /// their own instruments here so one world shares one registry.
  [[nodiscard]] obs::Hub& hub() const { return hub_; }
  /// Frames this engine could not parse (corruption / unknown types);
  /// a healthy simulation keeps this at zero.
  [[nodiscard]] std::uint64_t decode_failures() const {
    return decode_failures_;
  }

 private:
  // --- engine.cc: the propagation pipeline -------------------------------

  Context make_context(NodeId from, int hop) const;

  /// The shared pipeline (steps 1–7 above) for injected and received
  /// tuples, entered once step 0 has passed: `existing` is the replica of
  /// tuple->uid() that the copy supersedes, or nullptr when none is
  /// stored.
  void process(std::unique_ptr<Tuple> tuple, NodeId from,
               const TupleSpace::Entry* existing);

  /// Step 0, duplicate resolution: true — counted under
  /// engine.drop.duplicate — when the stored replica `existing` (nullptr:
  /// none) stands against a copy that travelled `hop` hops.
  bool is_duplicate(const TupleSpace::Entry* existing, int hop);

  /// Broadcasts a TUPLE frame carrying `tuple` as stored on this node.
  void send_tuple(const Tuple& tuple);

  /// Convenience: one trace span (obs/tracer.h) on this engine's node.
  void trace(obs::Stage stage, const TupleUid& uid, int hop);

  /// Platform::schedule plus ownership: the timer is tracked in
  /// live_timers_ until it fires and cancelled by ~Engine if it has not.
  void schedule_owned(SimTime delay, std::function<void()> action);

  // --- engine_rx.cc: frame receive/decode --------------------------------

  /// Routes a decoded envelope: TUPLE bodies to receive_tuple, control
  /// frames to their handlers.
  void dispatch(NodeId from, const wire::Frame& frame);

  /// One received tuple copy, header first: the uid lookup, maintenance
  /// bookkeeping and step 0; then, for a copy that can enter, the body
  /// decode, hop increment and pipeline.  Throws wire::DecodeError /
  /// wire::UnknownTypeError on malformed input that it reads.
  void receive_tuple(NodeId from, std::span<const std::uint8_t> body);

  /// Counts a frame this engine could not parse.
  void note_decode_failure();

  // --- engine_maintenance.cc: topology-change repair ---------------------

  /// Removes the local replica `entry` (which dangles afterwards),
  /// announces the removal, arms the hold-down, and counts it under
  /// started/cascaded retractions.
  void retract_local(const TupleSpace::Entry& entry, bool cascaded);

  void handle_retract(NodeId from, const TupleUid& uid);
  void handle_probe(const TupleUid& uid);

  /// True when the local replica of `uid` is allowed to stay: it is the
  /// source's own, not maintained, or some neighbour holds a smaller
  /// value (NeighborValueTable::supports).
  [[nodiscard]] bool justified(const TupleSpace::Entry& entry) const;

  /// Re-checks justification of the local replica `entry`; retracts it
  /// when support is gone and returns true (`entry` then dangles).
  /// `cascaded` only labels the counters: link-loss-initiated removals
  /// are maint.retract_started, removals triggered by another node's
  /// retraction/stretch maint.retract_cascaded.
  bool recheck(const TupleSpace::Entry& entry, bool cascaded = true);

  /// Starts the repair clock for `uid` (called at retraction); stopped
  /// by record_repair when the tuple reinstalls, feeding maint.repair_ms.
  void note_repair_pending(const TupleUid& uid);
  void record_repair(const TupleUid& uid);

  // --- state --------------------------------------------------------------

  NodeId self_;
  Platform& platform_;
  TupleSpace& space_;
  EventBus& bus_;
  MaintenanceOptions maintenance_;
  obs::Hub& hub_;
  EngineMetrics metrics_;
  /// net.sync.resend, registered by the first on_digest (see there).
  obs::Counter* sync_resend_ = nullptr;

  std::vector<NodeId> neighbors_;
  /// Overheard replica values per distributed tuple — the justification
  /// oracle.
  NeighborValueTable neighbor_values_;
  /// Uids of pass-through (non-stored) tuples already processed here;
  /// terminates floods of tuples that keep no replica to dedup against.
  BoundedUidFifo<std::monostate> seen_passthrough_;
  /// Recently-retracted tuples: reinstalls at >= the removed hop wait
  /// out the hold-down (see header essay).
  HoldDownTable hold_down_;
  /// Retraction instants of tuples whose repair we are still waiting to
  /// observe; bounded because a tuple whose region drains for good never
  /// reinstalls.
  BoundedUidFifo<SimTime> repair_pending_;
  /// Timers scheduled by this engine that have not fired yet; ~Engine
  /// cancels them (see schedule_owned).
  std::unordered_set<Platform::TimerId> live_timers_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t decode_failures_ = 0;
  /// Grows to the largest TUPLE frame this engine has sent; pre-sizes
  /// the next frame's buffer.
  std::size_t frame_size_hint_ = 128;
  /// Coalesces same-instant link-up re-propagation into one round.
  bool repropagation_pending_ = false;
};

}  // namespace tota
