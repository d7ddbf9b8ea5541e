#include "net/session.h"

#include <utility>

#include "net/datagram.h"
#include "tota/digest.h"
#include "tota/middleware.h"

namespace tota::net {

NetSession::NetSession(NodeId self, tota::Platform& platform,
                       SessionOptions options, SendFn send,
                       obs::MetricsRegistry& metrics)
    : self_(self),
      platform_(platform),
      options_(options),
      batcher_(self, platform, options.batch, std::move(send), metrics),
      rel_(std::make_unique<ReliableChannel>(platform, options.rel, metrics)),
      discovery_(
          self, platform, options.discovery,
          [this](std::uint64_t seq, SimTime period) { on_beacon(seq, period); },
          metrics),
      data_tx_(metrics.counter("net.data.tx")),
      data_rx_(metrics.counter("net.data.rx")),
      data_echo_(metrics.counter("net.data.echo")),
      frame_bad_(metrics.counter("net.frame.bad")),
      frame_skip_(metrics.counter("net.frame.skip")),
      sync_digest_tx_(metrics.counter("net.sync.digest_tx")),
      sync_digest_rx_(metrics.counter("net.sync.digest_rx")) {
  rel_->set_emit([this](std::uint64_t seq, std::uint64_t floor,
                        std::span<const std::uint8_t> frame) {
    batcher_.rel(seq, floor, frame);
  });
  rel_->set_ack([this](NodeId peer, std::uint64_t cum) {
    batcher_.ack(peer, cum);
  });
  rel_->set_deliver([this](NodeId from, std::span<const std::uint8_t> frame) {
    if (middleware_ != nullptr) middleware_->on_datagram(from, frame);
  });
  discovery_.on_neighbor_up([this](NodeId n) {
    if (middleware_ != nullptr) middleware_->on_neighbor_up(n);
  });
  discovery_.on_neighbor_down([this](NodeId n) {
    // Order matters: retire the channel's state for the peer first so
    // the middleware's own down-handling (retractions!) does not wait
    // on acks from a node that is gone.
    rel_->on_peer_down(n);
    if (middleware_ != nullptr) middleware_->on_neighbor_down(n);
  });
}

NetSession::~NetSession() { stop(); }

void NetSession::start() {
  next_digest_ = platform_.now() + options_.digest_period;
  rel_->start();  // resume retransmits for anything left from a stop()
  discovery_.start();
}

void NetSession::stop() {
  // Full quiesce: a stopped node must not transmit.  Discovery goes
  // silent, the reliable channel's retransmit timer is cancelled (its
  // window survives for a restart), and whatever the batcher had
  // pending is dropped, flush timer included.
  discovery_.stop();
  rel_->stop();
  batcher_.clear();
}

void NetSession::broadcast(wire::Bytes payload) {
  data_tx_.inc();
  batcher_.data(payload);
}

void NetSession::broadcast_reliable(wire::Bytes payload) {
  if (!options_.reliable) {
    broadcast(std::move(payload));
    return;
  }
  data_tx_.inc();
  rel_->send(std::move(payload), discovery_.neighbors());
}

void NetSession::on_beacon(std::uint64_t seq, SimTime period) {
  batcher_.hello(seq, period);
  // Housekeeping rides the same flush as the beacon: standing cumulative
  // acks keep retiring retransmissions through idle periods, and the
  // digest goes out on its own slower cadence.
  rel_->reack_all();
  maybe_digest();
}

void NetSession::maybe_digest() {
  if (options_.digest_period <= SimTime::zero()) return;
  if (middleware_ == nullptr) return;
  const SimTime now = platform_.now();
  if (now < next_digest_) return;
  next_digest_ = now + options_.digest_period;
  batcher_.digest(middleware_->digest(options_.digest_buckets).encode());
  sync_digest_tx_.inc();
}

void NetSession::route_chunk(NodeId sender, const Chunk& chunk) {
  switch (chunk.kind) {
    case ChunkKind::kHello:
      discovery_.on_hello(sender, chunk.seq, chunk.period);
      return;
    case ChunkKind::kData:
      data_rx_.inc();
      if (middleware_ != nullptr) {
        middleware_->on_datagram(sender, chunk.payload);
      }
      return;
    case ChunkKind::kRel:
      rel_->on_rel(sender, chunk.seq, chunk.floor, chunk.payload);
      return;
    case ChunkKind::kAck:
      // Acks are per-stream: only the one addressed to our stream is
      // ours; the rest are other nodes acking other senders.
      if (chunk.peer == self_) rel_->on_ack(sender, chunk.cum);
      return;
    case ChunkKind::kDigest: {
      StoreDigest digest;
      try {
        digest = StoreDigest::decode(chunk.payload);
      } catch (const wire::DecodeError&) {
        frame_bad_.inc();
        return;
      }
      sync_digest_rx_.inc();
      if (middleware_ != nullptr) middleware_->on_digest(sender, digest);
      return;
    }
  }
}

void NetSession::on_raw(std::span<const std::uint8_t> bytes) {
  Datagram d;
  try {
    d = Datagram::decode(bytes);
  } catch (const wire::DecodeError&) {
    frame_bad_.inc();  // foreign or corrupt traffic on our channel
    return;
  }

  if (d.sender == self_) {
    data_echo_.inc();  // our own broadcast, looped back by the medium
    return;
  }
  if (d.skipped > 0) frame_skip_.inc(static_cast<std::int64_t>(d.skipped));
  for (const Chunk& chunk : d.chunks) route_chunk(d.sender, chunk);
}

}  // namespace tota::net
