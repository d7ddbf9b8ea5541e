#include "net/reliable.h"

#include <algorithm>
#include <utility>

namespace tota::net {

ReliableChannel::ReliableChannel(tota::Platform& platform,
                                 obs::MetricsRegistry& metrics)
    : platform_(platform),
      rel_tx_(metrics.counter("net.rel.tx")),
      rel_rtx_(metrics.counter("net.rel.rtx")),
      rel_acked_(metrics.counter("net.rel.acked")),
      rel_expired_(metrics.counter("net.rel.expired")),
      rel_rx_(metrics.counter("net.rel.rx")),
      rel_dup_(metrics.counter("net.rel.dup")),
      rel_ooo_(metrics.counter("net.rel.ooo")),
      rel_skipped_(metrics.counter("net.rel.skipped")),
      rel_rx_overflow_(metrics.counter("net.rel.rx_overflow")),
      rel_ack_rx_(metrics.counter("net.rel.ack_rx")) {}

ReliableChannel::~ReliableChannel() { platform_.cancel(rtx_timer_); }

void ReliableChannel::start() { rearm_timer(); }

void ReliableChannel::stop() {
  platform_.cancel(rtx_timer_);
  rtx_timer_ = tota::Platform::kInvalidTimer;
}

std::uint64_t ReliableChannel::floor() const {
  return window_.empty() ? next_seq_ : window_.front().seq;
}

std::uint64_t ReliableChannel::expected(NodeId from) const {
  const auto it = rx_.find(from);
  return it == rx_.end() ? 0 : it->second.expected;
}

SimTime ReliableChannel::jittered(SimTime base) {
  const double spread =
      1.0 + kRtxJitter * (2.0 * platform_.rng().uniform() - 1.0);
  return base * spread;
}

void ReliableChannel::transmit(InFlight& f) {
  ++f.attempts;
  (f.attempts == 1 ? rel_tx_ : rel_rtx_).inc();
  if (emit_) emit_(f.seq, floor(), f.frame);
  // Backoff for the *next* attempt: initial * backoff^(attempts-1),
  // capped.  Computed by repeated multiply — kMaxAttempts is small.
  SimTime wait = kRtxInitial;
  for (int i = 1; i < f.attempts && wait < kRtxCap; ++i) {
    wait = wait * kRtxBackoff;
  }
  if (wait > kRtxCap) wait = kRtxCap;
  f.next_due = platform_.now() + jittered(wait);
}

void ReliableChannel::send(wire::Bytes frame, std::vector<NodeId> targets) {
  if (!targets.empty() && window_.size() >= kWindow) {
    queue_.emplace_back(std::move(frame), std::move(targets));
    return;
  }
  if (admit(std::move(frame), std::move(targets))) rearm_timer();
}

bool ReliableChannel::admit(wire::Bytes frame, std::vector<NodeId> targets) {
  if (targets.empty()) {
    // Nobody to wait for: one best-effort emission, seq consumed so the
    // stream stays monotonic for receivers that do overhear it.  The
    // floor must be read *before* the seq is consumed: with an empty
    // window floor() tracks next_seq_, and chunk_rel cannot encode a
    // floor above the chunk's own seq (it writes seq - floor).
    const std::uint64_t fl = floor();
    const std::uint64_t seq = next_seq_++;
    rel_tx_.inc();
    if (emit_) emit_(seq, fl, frame);
    return false;
  }
  InFlight f;
  f.seq = next_seq_++;
  f.frame = std::move(frame);
  f.waiting = std::move(targets);
  window_.push_back(std::move(f));
  transmit(window_.back());
  return true;
}

void ReliableChannel::drain_queue() {
  bool activated = false;
  while (!queue_.empty() && window_.size() < kWindow) {
    auto [frame, targets] = std::move(queue_.front());
    queue_.pop_front();
    // on_peer_down pruned departed targets from queue_ entries in place,
    // so a queued frame may surface here with nobody left to wait for.
    activated |= admit(std::move(frame), std::move(targets));
  }
  if (activated) rearm_timer();
}

void ReliableChannel::rearm_timer() {
  platform_.cancel(rtx_timer_);
  rtx_timer_ = tota::Platform::kInvalidTimer;
  if (window_.empty()) return;
  SimTime due = window_.front().next_due;
  for (const auto& f : window_) due = std::min(due, f.next_due);
  const SimTime now = platform_.now();
  const SimTime delay = due > now ? due - now : SimTime::zero();
  rtx_timer_ = platform_.schedule(delay, [this] { on_timer(); });
}

void ReliableChannel::on_timer() {
  rtx_timer_ = tota::Platform::kInvalidTimer;
  const SimTime now = platform_.now();
  for (auto it = window_.begin(); it != window_.end();) {
    if (it->next_due > now) {
      ++it;
      continue;
    }
    if (it->attempts >= kMaxAttempts) {
      // Bounded reliability: give up, advance the floor past the gap
      // (the next emission's floor tells receivers to stop waiting).
      rel_expired_.inc();
      it = window_.erase(it);
      continue;
    }
    transmit(*it);
    ++it;
  }
  drain_queue();
  rearm_timer();
}

void ReliableChannel::on_ack(NodeId from, std::uint64_t cum) {
  rel_ack_rx_.inc();
  bool retired = false;
  for (auto it = window_.begin(); it != window_.end();) {
    if (it->seq > cum) break;  // window is in ascending seq order
    std::erase(it->waiting, from);
    if (it->waiting.empty()) {
      rel_acked_.inc();
      it = window_.erase(it);
      retired = true;
      continue;
    }
    ++it;
  }
  if (retired) {
    drain_queue();
    rearm_timer();
  }
}

void ReliableChannel::on_peer_down(NodeId peer) {
  bool retired = false;
  for (auto it = window_.begin(); it != window_.end();) {
    std::erase(it->waiting, peer);
    if (it->waiting.empty()) {
      rel_acked_.inc();
      it = window_.erase(it);
      retired = true;
      continue;
    }
    ++it;
  }
  for (auto& [frame, targets] : queue_) std::erase(targets, peer);
  rx_.erase(peer);  // a returning peer resyncs from the floor
  if (retired) {
    drain_queue();
    rearm_timer();
  }
}

void ReliableChannel::deliver_ready(NodeId from, RxStream& rx) {
  for (auto it = rx.buffered.find(rx.expected); it != rx.buffered.end();
       it = rx.buffered.find(rx.expected)) {
    const wire::Bytes frame = std::move(it->second);
    rx.buffered.erase(it);
    ++rx.expected;
    rel_rx_.inc();
    if (deliver_) deliver_(from, frame);
  }
}

void ReliableChannel::on_rel(NodeId from, std::uint64_t seq,
                             std::uint64_t floor,
                             std::span<const std::uint8_t> frame) {
  RxStream& rx = rx_[from];
  if (rx.expected == 0) rx.expected = std::max<std::uint64_t>(floor, 1);
  if (floor > rx.expected) {
    // The sender abandoned everything below `floor` (expiry or retired
    // targets); deliver what we buffered across the gap, skip the rest.
    for (std::uint64_t s = rx.expected; s < floor; ++s) {
      const auto it = rx.buffered.find(s);
      if (it == rx.buffered.end()) {
        rel_skipped_.inc();
        continue;
      }
      const wire::Bytes buffered = std::move(it->second);
      rx.buffered.erase(it);
      rel_rx_.inc();
      if (deliver_) deliver_(from, buffered);
    }
    rx.expected = floor;
    // The new expected may itself already be buffered (it was ahead of
    // the old expectation): drain it now rather than waiting for its
    // retransmission.
    deliver_ready(from, rx);
  }

  if (seq < rx.expected) {
    // A retransmission of something already delivered (or skipped);
    // re-ack so the sender retires it.
    rel_dup_.inc();
  } else if (seq == rx.expected) {
    ++rx.expected;
    rel_rx_.inc();
    if (deliver_) deliver_(from, frame);
    deliver_ready(from, rx);
  } else if (rx.buffered.count(seq) > 0) {
    rel_dup_.inc();  // already buffered ahead
  } else if (rx.buffered.size() >= kRxBuffer) {
    rel_rx_overflow_.inc();  // the sender's retransmit covers it
  } else {
    rel_ooo_.inc();
    rx.buffered.emplace(seq, wire::Bytes(frame.begin(), frame.end()));
  }
  if (ack_) ack_(from, rx.expected - 1);
}

}  // namespace tota::net
