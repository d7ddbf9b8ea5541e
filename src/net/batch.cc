#include "net/batch.h"

#include <algorithm>
#include <utility>

namespace tota::net {

std::vector<wire::Bytes> pack_batches(NodeId sender,
                                      std::vector<EncodedChunk> chunks,
                                      const BatchOptions& options,
                                      obs::Counter* oversize) {
  std::vector<wire::Bytes> out;
  if (chunks.empty()) return out;
  const std::size_t overhead = Datagram::batch_overhead(sender);
  const std::size_t max_chunks =
      std::min(options.max_chunks == 0 ? kMaxBatchChunks : options.max_chunks,
               kMaxBatchChunks);

  std::vector<EncodedChunk> current;
  std::size_t size = overhead;
  const auto emit = [&] {
    if (current.empty()) return;
    out.push_back(Datagram::batch(sender, current));
    current.clear();
    size = overhead;
  };
  for (auto& chunk : chunks) {
    const std::size_t csize = chunk.wire_size();
    if (!current.empty() &&
        ((options.mtu != 0 && size + csize > options.mtu) ||
         current.size() >= max_chunks)) {
      emit();
    }
    if (current.empty() && options.mtu != 0 && overhead + csize > options.mtu &&
        oversize != nullptr) {
      oversize->inc();  // sent alone anyway; the link decides its fate
    }
    size += csize;
    current.push_back(std::move(chunk));
  }
  emit();
  return out;
}

Batcher::Batcher(NodeId self, tota::Platform& platform, BatchOptions options,
                 SendFn send, obs::MetricsRegistry& metrics)
    : self_(self),
      platform_(platform),
      options_(options),
      send_(std::move(send)),
      batch_tx_(metrics.counter("net.batch.tx")),
      batch_chunks_(metrics.counter("net.batch.chunks")),
      batch_flush_(metrics.counter("net.batch.flush")),
      batch_oversize_(metrics.counter("net.batch.oversize")) {}

Batcher::~Batcher() { platform_.cancel(flush_timer_); }

void Batcher::hello(std::uint64_t seq, SimTime period) {
  enqueue(Datagram::chunk_hello(seq, period));
}

void Batcher::data(std::span<const std::uint8_t> frame) {
  enqueue(Datagram::chunk_data(frame));
}

void Batcher::rel(std::uint64_t seq, std::uint64_t floor,
                  std::span<const std::uint8_t> frame) {
  enqueue(Datagram::chunk_rel(seq, floor, frame));
}

void Batcher::ack(NodeId peer, std::uint64_t cum) {
  auto chunk = Datagram::chunk_ack(peer, cum);
  const auto it = ack_slot_.find(peer);
  if (it != ack_slot_.end()) {
    pending_[it->second] = std::move(chunk);  // newer cum supersedes
    return;
  }
  ack_slot_.emplace(peer, pending_.size());
  enqueue(std::move(chunk));
}

void Batcher::digest(wire::Bytes body) {
  auto chunk = Datagram::chunk_digest(std::move(body));
  if (digest_slot_ != kNoSlot) {
    pending_[digest_slot_] = std::move(chunk);  // newer digest supersedes
    return;
  }
  digest_slot_ = pending_.size();
  enqueue(std::move(chunk));
}

void Batcher::enqueue(EncodedChunk chunk) {
  pending_.push_back(std::move(chunk));
  if (flush_timer_ == tota::Platform::kInvalidTimer) {
    flush_timer_ =
        platform_.schedule(options_.flush_delay, [this] { flush(); });
  }
}

void Batcher::clear() {
  platform_.cancel(flush_timer_);
  flush_timer_ = tota::Platform::kInvalidTimer;
  pending_.clear();
  ack_slot_.clear();
  digest_slot_ = kNoSlot;
}

void Batcher::flush() {
  platform_.cancel(flush_timer_);
  flush_timer_ = tota::Platform::kInvalidTimer;
  if (pending_.empty()) return;
  batch_flush_.inc();
  const std::size_t chunks = pending_.size();
  auto datagrams = pack_batches(self_, std::exchange(pending_, {}), options_,
                                &batch_oversize_);
  ack_slot_.clear();
  digest_slot_ = kNoSlot;
  batch_tx_.inc(static_cast<std::int64_t>(datagrams.size()));
  batch_chunks_.inc(static_cast<std::int64_t>(chunks));
  for (auto& d : datagrams) send_(std::move(d));
}

}  // namespace tota::net
