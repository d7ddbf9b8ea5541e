// Batcher — the live send path's MTU-aware frame coalescer.
//
// The paper's own cost metric is messages per tuple, and a one-frame-
// per-datagram transport pays the full envelope + syscall + airtime
// price for every 30-byte gradient frame.  The batcher sits between the
// middleware and the raw transport: callers enqueue logical chunks
// (engine frames, HELLO beacons, reliable-channel frames and acks,
// anti-entropy digests) and the batcher packs everything pending into
// as few BATCH datagrams as fit the link MTU.
//
// Flush discipline: the first enqueue after an empty queue schedules a
// flush through Platform::schedule at `flush_delay` (zero by default —
// a *zero-delay* timer still runs strictly after the current event, so
// all traffic generated within one event instant clusters into one
// datagram: a node that receives a 30-frame batch re-broadcasts its 30
// reactions as one datagram, not thirty).  A nonzero delay widens the
// coalescing window at the price of added latency, exactly Nagle's
// trade.
//
// Packing is greedy in enqueue order: a chunk that would overflow the
// current datagram starts the next one; a single chunk larger than the
// MTU is sent alone and counted (net.batch.oversize) — whether the link
// then drops it is the link's business (the kernel, or the simulator's
// DeviceProfile MTU).
//
// Metrics: net.batch.tx (BATCH datagrams sent), net.batch.chunks
// (chunks carried), net.batch.flush (flush rounds), net.batch.oversize.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "net/datagram.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota::net {

struct BatchOptions {
  /// Compatibility shim: nothing reads it — every Batcher packs BATCH
  /// datagrams.  Kept while the benchmark's live_mass workload
  /// (perfbench) still sets it; remove once that workload stops doing so.
  bool enabled = true;
  /// Pack limit per datagram, bytes (the DeviceProfile / link MTU).
  /// 0 = unlimited: everything pending goes into one datagram.
  std::size_t mtu = 1400;
  /// Most chunks per datagram, clamped to kMaxBatchChunks.
  std::size_t max_chunks = 64;
  /// Coalescing window: how long after the first pending chunk the
  /// flush timer fires.  Zero = same-event-instant clustering only.
  SimTime flush_delay = SimTime::zero();
};

/// Packs `chunks` into as few BATCH datagrams as `options` allows
/// (the Batcher's flush).  Oversize
/// single chunks are emitted alone; `oversize` (optional) counts them.
std::vector<wire::Bytes> pack_batches(NodeId sender,
                                      std::vector<EncodedChunk> chunks,
                                      const BatchOptions& options,
                                      obs::Counter* oversize = nullptr);

class Batcher {
 public:
  /// `send` transmits one encoded BATCH datagram.
  using SendFn = std::function<void(wire::Bytes)>;

  Batcher(NodeId self, tota::Platform& platform, BatchOptions options,
          SendFn send, obs::MetricsRegistry& metrics);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // --- enqueue (all coalesce until the flush timer fires) --------------

  void hello(std::uint64_t seq, SimTime period);
  void data(std::span<const std::uint8_t> frame);
  void rel(std::uint64_t seq, std::uint64_t floor,
           std::span<const std::uint8_t> frame);
  /// Cumulative ack for `peer`'s reliable stream.  Coalesced per peer:
  /// a newer cum for the same peer overwrites the pending chunk (a
  /// cumulative ack makes every older one redundant).
  void ack(NodeId peer, std::uint64_t cum);
  /// Anti-entropy digest (encoded by tota::StoreDigest).  At most one
  /// pending: a newer digest replaces an unsent older one.
  void digest(wire::Bytes body);

  /// Sends everything pending now (also the flush timer's target).
  void flush();

  /// Cancels the pending flush and drops everything queued, including
  /// the coalesced ack/digest slots — the session-stop path: a stopped
  /// node must not transmit.
  void clear();

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  void enqueue(EncodedChunk chunk);

  NodeId self_;
  tota::Platform& platform_;
  BatchOptions options_;
  SendFn send_;

  std::vector<EncodedChunk> pending_;
  /// Index into pending_ of the pending ACK chunk per peer / the
  /// pending DIGEST chunk, for overwrite-in-place coalescing.
  std::unordered_map<NodeId, std::size_t> ack_slot_;
  std::size_t digest_slot_ = kNoSlot;
  tota::Platform::TimerId flush_timer_ = tota::Platform::kInvalidTimer;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  obs::Counter& batch_tx_;
  obs::Counter& batch_chunks_;
  obs::Counter& batch_flush_;
  obs::Counter& batch_oversize_;
};

}  // namespace tota::net
