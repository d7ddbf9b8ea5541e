// The TOTA API (paper Sec. 4.3) — the middleware facade of one node.
//
//   inject(tuple)                  put a tuple on the air
//   read(template)                 matching local tuples (shared handles)
//   take(template)                 extract matching local tuples
//                                  (the paper's `delete`; renamed because
//                                  `delete` is a C++ keyword)
//   subscribe(template, reaction)  react to matching local events
//   unsubscribe(...)               remove subscriptions
//
// A Middleware is wired to a Platform (radio + clock + sensors) and is
// driven by upcalls from the node's link layer: on_datagram,
// on_neighbor_up, on_neighbor_down.  In this repository the Platform is
// either the network simulator (emu::ShardPlatform in
// emu/sharded_world.h) or real UDP sockets (net/live_platform.h), as on
// the paper's IPAQ prototype.
#pragma once

#include <memory>
#include <vector>

#include "tota/engine.h"
#include "tota/events.h"
#include "tota/maintenance.h"
#include "tota/pattern.h"
#include "tota/platform.h"
#include "tota/tuple.h"
#include "tota/tuple_space.h"

namespace tota {

class Middleware {
 public:
  /// `hub` collects this node's metrics and trace spans (shared with the
  /// other nodes of the same world); nullptr = obs::default_hub().
  Middleware(NodeId self, Platform& platform,
             MaintenanceOptions maintenance = {}, obs::Hub* hub = nullptr);

  Middleware(const Middleware&) = delete;
  Middleware& operator=(const Middleware&) = delete;

  // --- the TOTA API -------------------------------------------------------

  /// Injects `tuple` into the network: the tuple starts propagating
  /// according to its propagation rule.  Returns the middleware-assigned
  /// uid (useful for tests and tracing; applications normally ignore it).
  TupleUid inject(std::unique_ptr<Tuple> tuple);

  /// Local tuples matching `pattern` (the paper's `read`), as shared
  /// immutable handles: each stays valid, with the content it was read
  /// with, however the space changes afterwards.
  [[nodiscard]] std::vector<TupleHandle> read(const Pattern& pattern) const;

  /// First local match, or nullptr.
  [[nodiscard]] TupleHandle read_one(const Pattern& pattern) const;

  /// Extracts and returns local tuples matching `pattern` (the paper's
  /// `delete`).  Removal is local: replicas on other nodes are untouched,
  /// exactly as in the paper (use a modifier tuple for distributed
  /// deletion).
  std::vector<TupleHandle> take(const Pattern& pattern);

  /// Associates `reaction` with events whose tuple matches `pattern`.
  SubscriptionId subscribe(Pattern pattern, EventBus::Reaction reaction,
                           int kind_filter = EventBus::kAnyKind);

  void unsubscribe(SubscriptionId id);
  void unsubscribe(const Pattern& pattern);

  /// Registers a continuous query (docs/QUERY.md): `on_delta` first
  /// replays the current matches as kAdded deltas (uid order), then the
  /// result set is maintained incrementally on every local store change —
  /// no re-scan.
  QueryId subscribe_query(Pattern pattern, EventBus::QueryCallback on_delta);

  void unsubscribe_query(QueryId id);

  // --- link-layer upcalls ---------------------------------------------------

  void on_datagram(NodeId from, std::span<const std::uint8_t> payload);
  void on_neighbor_up(NodeId neighbor);
  void on_neighbor_down(NodeId neighbor);

  // --- anti-entropy (see tota/digest.h, net/session.h) ----------------------

  /// Digest of this node's propagated tuple set.
  [[nodiscard]] StoreDigest digest(std::uint32_t buckets) const {
    return engine_.digest(buckets);
  }
  /// Diff a neighbour's digest against the local store and re-broadcast
  /// the tuples in differing buckets; returns how many were re-sent.
  int on_digest(NodeId from, const StoreDigest& remote) {
    return engine_.on_digest(from, remote);
  }

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] NodeId self() const { return engine_.self(); }
  [[nodiscard]] const TupleSpace& space() const { return space_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }
  /// This node's observability hub (shared with the other nodes of the
  /// same world).
  [[nodiscard]] obs::Hub& hub() const { return engine_.hub(); }
  [[nodiscard]] const std::vector<NodeId>& neighbors() const {
    return engine_.neighbors();
  }
  [[nodiscard]] Platform& platform() { return platform_; }

 private:
  Platform& platform_;
  TupleSpace space_;
  EventBus bus_;
  Engine engine_;
};

}  // namespace tota
