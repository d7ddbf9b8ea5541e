// ReliableChannel — a thin reliable-ordered stream for control frames
// over the broadcast medium.
//
// Tuple floods are self-healing (duplicates dedup, better values win),
// but RETRACT/PROBE control frames are not: one lost RETRACT leaves a
// stale replica "justified" by a neighbour that no longer exists, and
// nothing ever corrects it — the leak the soak's drop-0.3 runs exhibit.
// This channel gives those frames at-least-once, in-order delivery to
// the neighbours present at send time, without pulling in a full
// transport: think "the 5% of TCP that a 30-byte RETRACT needs".
//
// Sender side: every frame gets a monotonically increasing seq (one
// stream per node, broadcast to all; receivers track it per sender).
// In-flight frames are retransmitted on a capped exponential backoff
// with seeded jitter until every targeted neighbour has cumulatively
// acked the seq, the neighbour goes away, or kMaxAttempts is exhausted
// (net.rel.expired — reliability is bounded, not infinite).  A bounded
// in-flight window applies backpressure: frames beyond it queue and
// enter the window as acks free slots.
//
// Every REL chunk carries the sender's *floor* — the lowest seq it
// still guarantees to retransmit.  The floor is what makes the stream
// self-synchronizing on a lossy broadcast medium:
//   * a receiver with no state for the sender starts its expectation at
//     the floor, not at the first seq it happens to catch (which may be
//     a retransmission racing ahead of older in-flight frames);
//   * when the sender gives up on a frame (expiry) or retires it
//     because its targets left, the floor advances past the gap and
//     receivers stop waiting for a frame that will never come
//     (net.rel.skipped), delivering what they had buffered beyond it.
//
// Receiver side: frames at the expected seq are delivered immediately
// (plus any buffered successors); ahead-of-expected frames are buffered
// up to kRxBuffer (net.rel.ooo); behind-expected frames are duplicates
// from retransmission (net.rel.dup) — dropped, but re-acked so the
// sender retires them.  Acks are cumulative (expected - 1), one per
// received REL, on the next outgoing batch (AckFn); a lost ack is
// recovered by the retransmit, whose duplicate is acked again.
//
// The channel is transport-free: it emits REL/ACK chunks through
// callbacks and is fed decoded chunks by its owner, taking clock,
// timers, and jitter randomness from the Platform — so the whole state
// machine runs identically under the simulator's clock, the test
// double's, or the live event loop's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota::net {

class ReliableChannel {
 public:
  /// Transmits one REL chunk (seq, current floor, frame bytes).
  using EmitFn = std::function<void(
      std::uint64_t seq, std::uint64_t floor,
      std::span<const std::uint8_t> frame)>;
  /// Transmits a cumulative ack for `peer`'s stream.
  using AckFn = std::function<void(NodeId peer, std::uint64_t cum)>;
  /// Delivers one in-order frame from `from` to the layer above.
  using DeliverFn =
      std::function<void(NodeId from, std::span<const std::uint8_t> frame)>;

  /// Most unacked frames in flight; further sends queue behind them.
  static constexpr std::size_t kWindow = 32;
  /// First retransmit after kRtxInitial * (1 ± kRtxJitter); each retry
  /// doubles (kRtxBackoff) up to kRtxCap.
  static constexpr SimTime kRtxInitial = SimTime::from_millis(200);
  static constexpr double kRtxBackoff = 2.0;
  static constexpr SimTime kRtxCap = SimTime::from_seconds(2);
  static constexpr double kRtxJitter = 0.25;
  /// Transmissions per frame (first + retries) before giving up and
  /// advancing the floor past it (net.rel.expired).
  static constexpr int kMaxAttempts = 12;
  /// Ahead-of-expected frames buffered per sender; beyond it, early
  /// frames are dropped and covered by the sender's retransmit.
  static constexpr std::size_t kRxBuffer = 64;

  ReliableChannel(tota::Platform& platform, obs::MetricsRegistry& metrics);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// All three must be set before the first send/on_rel.
  void set_emit(EmitFn fn) { emit_ = std::move(fn); }
  void set_ack(AckFn fn) { ack_ = std::move(fn); }
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Re-arms the retransmit timer for anything still in flight after a
  /// stop() (no-op on a fresh or idle channel).
  void start();
  /// Cancels the retransmit timer so a stopped node goes silent.  The
  /// window/queue state stays: start() resumes the retransmits.
  void stop();

  // --- sender ----------------------------------------------------------

  /// Queues `frame` for reliable broadcast to `targets` (the neighbour
  /// set at send time; later joiners are covered by anti-entropy, not
  /// retroactive acks).  An empty target set emits once, best-effort.
  void send(wire::Bytes frame, std::vector<NodeId> targets);

  /// Cumulative ack from `from`: it has delivered our stream through
  /// `cum`.
  void on_ack(NodeId from, std::uint64_t cum);

  // --- receiver --------------------------------------------------------

  /// One decoded REL chunk from `from`.
  void on_rel(NodeId from, std::uint64_t seq, std::uint64_t floor,
              std::span<const std::uint8_t> frame);

  /// The neighbour left (discovery down, incl. the down half of a
  /// restart): stop waiting for its acks, forget its rx stream — a
  /// returning peer re-synchronizes from the floor.
  void on_peer_down(NodeId peer);

  // --- introspection ---------------------------------------------------

  /// Lowest seq still guaranteed to be retransmitted (== next_seq when
  /// nothing is in flight or queued).
  [[nodiscard]] std::uint64_t floor() const;
  [[nodiscard]] std::size_t in_flight() const { return window_.size(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Next expected seq from `from` (0 = no stream state).
  [[nodiscard]] std::uint64_t expected(NodeId from) const;

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    wire::Bytes frame;
    std::vector<NodeId> waiting;  // targets that have not acked yet
    int attempts = 0;             // transmissions so far
    SimTime next_due;
  };
  struct RxStream {
    std::uint64_t expected = 0;  // 0 = uninitialized, set from floor
    std::map<std::uint64_t, wire::Bytes> buffered;
  };

  void transmit(InFlight& f);      // emit + schedule next attempt
  /// Emits `frame` under the next seq: best-effort once if `targets` is
  /// empty, else into the window.  True when it entered the window.
  bool admit(wire::Bytes frame, std::vector<NodeId> targets);
  void drain_queue();              // move queued frames into the window
  void rearm_timer();
  void on_timer();
  [[nodiscard]] SimTime jittered(SimTime base);
  void deliver_ready(NodeId from, RxStream& rx);

  tota::Platform& platform_;
  EmitFn emit_;
  AckFn ack_;
  DeliverFn deliver_;

  std::uint64_t next_seq_ = 1;
  std::deque<InFlight> window_;  // ascending seq
  std::deque<std::pair<wire::Bytes, std::vector<NodeId>>> queue_;
  tota::Platform::TimerId rtx_timer_ = tota::Platform::kInvalidTimer;

  std::unordered_map<NodeId, RxStream> rx_;

  obs::Counter& rel_tx_;
  obs::Counter& rel_rtx_;
  obs::Counter& rel_acked_;
  obs::Counter& rel_expired_;
  obs::Counter& rel_rx_;
  obs::Counter& rel_dup_;
  obs::Counter& rel_ooo_;
  obs::Counter& rel_skipped_;
  obs::Counter& rel_rx_overflow_;
  obs::Counter& rel_ack_rx_;
};

}  // namespace tota::net
