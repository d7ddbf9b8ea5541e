// NetSession — the datagram path of one live node, socket-free.
//
// Everything between the middleware and the raw bytes of the broadcast
// channel lives here: beacon-based neighbour presence (net::Discovery),
// MTU-aware frame coalescing (net::Batcher), the reliable-ordered
// control channel (net::ReliableChannel), and the periodic anti-entropy
// digest exchange (tota::StoreDigest).  LivePlatform wires a session to
// a UdpTransport; the transport-free tests and benches wire it to an
// in-memory channel — the session cannot tell the difference, because
// it only ever touches a SendFn and decoded datagrams fed to on_raw().
//
// Receive routing: every datagram is a BATCH (net/datagram.h); our own
// echoes are dropped once per datagram, the rest is routed per chunk:
//   HELLO chunk      → discovery (presence, expiry re-arm)
//   DATA chunk       → middleware (engine frame)
//   REL chunk        → reliable channel (dedup, reorder, ack) which
//                      delivers in-order frames to the middleware
//   ACK chunk        → reliable channel, when addressed to this node
//   DIGEST chunk     → middleware's anti-entropy diff
//   unknown chunk    → skipped by the decoder (net.frame.skip)
// Anything that does not decode — foreign bytes, corruption, the
// retired one-frame-per-datagram HELLO/DATA kinds — counts
// net.frame.bad and is dropped.
//
// Send side: engine broadcasts become DATA chunks on the batcher;
// broadcast_reliable upgrades to the reliable channel when enabled
// (targets = the neighbour set at call time).  Each discovery beacon
// also piggybacks housekeeping on the same flush — the reliable
// channel's cumulative acks (reack_all) and, on its own slower cadence,
// the store digest — so the steady-state background traffic is one
// datagram per beacon period, not four.
//
// The reliable *receiver* is always on — a node with reliability
// disabled still deduplicates and acks REL traffic from neighbours that
// have it enabled; `reliable` only gates whether this node's own control
// frames use the channel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/clock.h"
#include "common/ids.h"
#include "net/batch.h"
#include "net/discovery.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota {
class Middleware;
}  // namespace tota

namespace tota::net {

/// The session knobs, declared once: LiveOptions and MassLiveOptions
/// derive from this struct.
struct SessionOptions {
  DiscoveryOptions discovery;
  /// Frame coalescing: MTU, chunk cap, flush delay.
  BatchOptions batch;
  /// Send RETRACT/PROBE control frames over the reliable channel.
  bool reliable = false;
  ReliableOptions rel;
  /// Anti-entropy digest cadence; zero disables the exchange.  Digests
  /// ride the beacon flush, so the effective period is rounded up to
  /// the next beacon.
  SimTime digest_period = SimTime::zero();
  /// Hash buckets per digest (tota/digest.h; clamped to its cap).
  std::uint32_t digest_buckets = 32;
};

class NetSession {
 public:
  /// Transmits one encoded datagram on the shared channel.
  using SendFn = std::function<void(wire::Bytes)>;

  /// Registers net.data.* / net.frame.* / net.sync.* (plus what the
  /// discovery, batcher, and reliable channel register) in `metrics`,
  /// which must outlive the session.
  NetSession(NodeId self, tota::Platform& platform, SessionOptions options,
             SendFn send, obs::MetricsRegistry& metrics);
  ~NetSession();

  NetSession(const NetSession&) = delete;
  NetSession& operator=(const NetSession&) = delete;

  /// Routes upcalls (frames, neighbour up/down, digests) into
  /// `middleware`; pass nullptr to detach.
  void attach(Middleware* middleware) { middleware_ = middleware; }

  /// Starts beaconing (the first beacon flushes immediately) and, after
  /// a stop(), resumes the reliable channel's retransmits.
  void start();
  /// Quiesces every send-side timer: stops discovery silently, cancels
  /// the reliable channel's retransmit timer, and drops anything
  /// pending in the batcher.
  void stop();

  // --- send path ----------------------------------------------------------

  /// Best-effort broadcast of one engine frame (tota::Platform seam).
  void broadcast(wire::Bytes payload);
  /// At-least-once broadcast to the current neighbour set when the
  /// reliable channel is enabled; plain broadcast otherwise.
  void broadcast_reliable(wire::Bytes payload);

  // --- receive path -------------------------------------------------------

  /// One raw datagram off the channel.  Corrupt/foreign bytes count
  /// net.frame.bad and are dropped; everything else is routed per the
  /// table above.
  void on_raw(std::span<const std::uint8_t> bytes);

  // --- introspection ------------------------------------------------------

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] Discovery& discovery() { return discovery_; }
  [[nodiscard]] const Discovery& discovery() const { return discovery_; }
  [[nodiscard]] Batcher& batcher() { return batcher_; }
  [[nodiscard]] ReliableChannel& reliable() { return *rel_; }
  [[nodiscard]] const SessionOptions& options() const { return options_; }

 private:
  void on_beacon(std::uint64_t seq, SimTime period);
  void maybe_digest();
  void route_chunk(NodeId sender, const Chunk& chunk);

  NodeId self_;
  tota::Platform& platform_;
  SessionOptions options_;
  Middleware* middleware_ = nullptr;

  Batcher batcher_;
  /// Always constructed: the receiver half (dedup + acks) serves
  /// neighbours with reliability enabled even when ours is off.
  std::unique_ptr<ReliableChannel> rel_;
  Discovery discovery_;

  SimTime next_digest_ = SimTime::zero();

  obs::Counter& data_tx_;
  obs::Counter& data_rx_;
  obs::Counter& data_echo_;
  obs::Counter& frame_bad_;
  obs::Counter& frame_skip_;
  obs::Counter& sync_digest_tx_;
  obs::Counter& sync_digest_rx_;
};

}  // namespace tota::net
