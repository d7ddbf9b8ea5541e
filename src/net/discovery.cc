#include "net/discovery.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace tota::net {

Discovery::Discovery(NodeId self, tota::Platform& platform,
                     DiscoveryOptions options, BeaconFn beacon,
                     obs::MetricsRegistry& metrics)
    : self_(self),
      platform_(platform),
      options_(options),
      beacon_(std::move(beacon)),
      hello_tx_(metrics.counter("net.hello.tx")),
      hello_rx_(metrics.counter("net.hello.rx")),
      hello_stale_(metrics.counter("net.hello.stale")),
      hello_restart_(metrics.counter("net.hello.restart")),
      hello_clamped_(metrics.counter("net.hello.clamped")),
      neighbor_up_(metrics.counter("net.neighbor.up")),
      neighbor_down_(metrics.counter("net.neighbor.down")),
      neighbors_gauge_(metrics.gauge("net.neighbors")) {}

Discovery::~Discovery() { stop(); }

void Discovery::start() {
  if (running_) return;
  running_ = true;
  send_beacon();
}

void Discovery::stop() {
  if (!running_) return;
  running_ = false;
  platform_.cancel(beacon_timer_);
  beacon_timer_ = tota::Platform::kInvalidTimer;
  for (auto& [id, n] : neighbors_) platform_.cancel(n.expiry);
  neighbors_.clear();
  neighbors_gauge_.set(0);
}

SimTime Discovery::expiry_after(SimTime period) const {
  // k beacon intervals, each allowed to be maximally late: lose k-1
  // beacons in a row and survive, lose k and expire.  Rounded (not
  // truncated) so e.g. 100ms * 3.6 is exactly 360ms.
  const double k = static_cast<double>(options_.expiry_missed_beacons);
  return SimTime(std::llround(static_cast<double>(period.micros()) * k *
                              (1.0 + kBeaconJitter)));
}

void Discovery::send_beacon() {
  if (!running_) return;
  beacon_(beacon_seq_++, options_.beacon_period);
  hello_tx_.inc();

  // Next beacon at period * (1 ± jitter); the uniform draw comes from
  // the platform's seeded Rng, so the whole schedule is reproducible.
  const double spread =
      1.0 + kBeaconJitter * (2.0 * platform_.rng().uniform() - 1.0);
  beacon_timer_ = platform_.schedule(options_.beacon_period * spread,
                                     [this] { send_beacon(); });
}

void Discovery::arm_expiry(NodeId id, Neighbor& n) {
  n.expiry = platform_.schedule(n.deadline - platform_.now(),
                                [this, id] { on_expiry_timer(id); });
}

void Discovery::on_hello(NodeId from, std::uint64_t seq, SimTime period) {
  if (!running_ || from == self_ || !from.valid()) return;
  hello_rx_.inc();

  // An advertised period is a claim by the peer; honour it only up to
  // kMaxPeerPeriod, or one hostile/corrupt HELLO advertising a huge
  // period would pin this neighbour entry (and wedge the maintenance
  // that its expiry drives) near-forever.
  if (period > kMaxPeerPeriod) {
    period = kMaxPeerPeriod;
    hello_clamped_.inc();
  }

  auto [it, fresh] = neighbors_.try_emplace(from);
  Neighbor& n = it->second;
  bool restarted = false;
  if (!fresh && seq <= n.last_seq) {
    if (n.last_seq - seq <= kRestartSeqWindow) {
      // A duplicated or reordered old beacon (trivially produced by UDP
      // or the fault injector): it carries *stale* information and must
      // not refresh the session or re-arm expiry.
      hello_stale_.inc();
      return;
    }
    // Deep regression: the peer restarted and is beaconing from zero
    // again.  Tear the old session down and re-announce the neighbour so
    // the layers above resync instead of silently continuing it.
    hello_restart_.inc();
    restarted = true;
  }

  // Only the deadline moves; the live timer catches up when it fires.
  n.deadline = std::max(n.deadline, platform_.now() + expiry_after(period));
  n.last_seq = seq;
  if (n.expiry == tota::Platform::kInvalidTimer) arm_expiry(from, n);
  if (!fresh && !restarted) return;

  if (restarted) {
    neighbor_down_.inc();
    if (down_) down_(from);
  }
  neighbor_up_.inc();
  neighbors_gauge_.set(static_cast<double>(neighbors_.size()));
  if (up_) up_(from);
}

void Discovery::on_expiry_timer(NodeId id) {
  const auto it = neighbors_.find(id);
  if (it == neighbors_.end()) return;
  Neighbor& n = it->second;
  n.expiry = tota::Platform::kInvalidTimer;
  if (platform_.now() < n.deadline) {
    arm_expiry(id, n);  // heard since this timer was armed
    return;
  }
  neighbors_.erase(it);
  neighbor_down_.inc();
  neighbors_gauge_.set(static_cast<double>(neighbors_.size()));
  if (down_) down_(id);
}

std::vector<NodeId> Discovery::neighbors() const {
  std::vector<NodeId> out;
  out.reserve(neighbors_.size());
  for (const auto& [id, _] : neighbors_) out.push_back(id);
  return out;
}

}  // namespace tota::net
