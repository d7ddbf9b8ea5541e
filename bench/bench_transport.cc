// TRANSPORT — the live datagram path (net/batch.h, net/reliable.h,
// tota/digest.h).
//
// Three sections, each an acceptance number for the transport:
//
//   (1) datagrams per delivered tuple: a 20-tuple burst through a
//       6-node line.  Coalescing same-instant frames into MTU-sized
//       BATCH datagrams means each relay re-broadcasts one batch, not
//       20 frames (EXPERIMENTS.md keeps the last one-frame-per-datagram
//       numbers for comparison);
//   (2) retraction delivery under drop 0.3, both arms batched: the
//       source of a tuple dies while every link loses 30% of datagrams.
//       Best-effort RETRACT cascades leak stale replicas (one lost frame
//       per hop is a permanent leak); the reliable-ordered channel
//       retransmits until acked and reaches delivery ratio 1.0 within
//       the soak horizon;
//   (3) anti-entropy heal cost: a silent DATA hole (HELLOs flow, so no
//       link event fires) is repaired by the periodic digest exchange
//       with O(diff) resent frames, not a full-store resync.
//
// The harness is a trimmed copy of the TransportWorld in
// tests/test_transport.cc (which owns the pass/fail assertions): full
// Middleware + NetSession stacks on a line topology over an in-memory
// broadcast channel with per-directed-link fault injection.  Everything
// runs on virtual time from seeded Rngs, so BENCH_transport.json is
// bit-for-bit deterministic.
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp_common.h"
#include "net/datagram.h"
#include "net/fault.h"
#include "net/session.h"
#include "sim/event_queue.h"
#include "tota/middleware.h"
#include "tuples/gradient_tuple.h"
#include "wire/buffer.h"

using namespace tota;

namespace {

NodeId id_of(int i) { return NodeId{static_cast<std::uint64_t>(i) + 1}; }

/// tota::Platform over a shared sim::EventQueue whose broadcast seam
/// routes through the node's NetSession (set right after construction).
class SessionPlatform final : public Platform {
 public:
  SessionPlatform(sim::EventQueue& events, Rng rng)
      : events_(events), rng_(rng) {}

  void broadcast(wire::Bytes payload) override {
    if (session != nullptr) session->broadcast(std::move(payload));
  }
  void broadcast_reliable(wire::Bytes payload) override {
    if (session != nullptr) session->broadcast_reliable(std::move(payload));
  }
  [[nodiscard]] SimTime now() const override { return events_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(TimerId id) override { events_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

  net::NetSession* session = nullptr;

 private:
  sim::EventQueue& events_;
  Rng rng_;
};

constexpr SimTime kLinkDelay = SimTime::from_millis(2);

struct TransportConfig {
  net::SessionOptions session;
  net::FaultPlan fault;  // applied per directed link while faults are on
};

net::DiscoveryOptions fast_discovery() {
  net::DiscoveryOptions o;
  o.beacon_period = SimTime::from_millis(100);
  // Deep enough that drop 0.3 essentially never fakes a death (0.3^12
  // per beacon) — these runs probe the transport under loss, not
  // discovery's churn response.
  o.expiry_missed_beacons = 12;
  return o;
}

/// N full live stacks (Middleware + NetSession) on a line topology over an
/// in-memory broadcast channel with per-directed-link fault injection.
class TransportWorld {
 public:
  using DropFilter =
      std::function<bool(int from, int to, const wire::Bytes& datagram)>;

  TransportWorld(std::uint64_t seed, int count, TransportConfig config)
      : count_(count),
        config_(std::move(config)),
        master_(seed),
        channel_platform_(events_, master_.fork()) {
    tuples::register_standard_tuples();
    for (int i = 0; i < count_; ++i) {
      nodes_.push_back(std::make_unique<Node>(*this, i));
    }
    for (int i = 0; i < count_; ++i) {
      for (const int j : neighbors_of(i)) {
        links_.emplace(key(i, j),
                       std::make_unique<net::FaultInjector>(
                           config_.fault, channel_platform_, hub_.metrics));
      }
    }
  }

  void start() {
    for (auto& n : nodes_) n->session.start();
  }

  void at(SimTime when, std::function<void()> action) {
    events_.schedule_at(when, std::move(action));
  }
  void run_until(SimTime deadline) { events_.run_until(deadline); }

  void set_faulty(bool on) { faulty_ = on; }
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }
  void flush_links() {
    for (auto& [k, inj] : links_) inj->flush();
  }

  void inject(int i, const std::string& name) {
    nodes_[i]->mw.inject(std::make_unique<tuples::GradientTuple>(name));
  }
  void kill(int i) {
    nodes_[i]->alive = false;
    nodes_[i]->session.stop();
  }

  [[nodiscard]] bool alive(int i) const { return nodes_[i]->alive; }
  [[nodiscard]] Middleware& mw(int i) { return nodes_[i]->mw; }
  [[nodiscard]] obs::Hub& hub() { return hub_; }
  [[nodiscard]] std::int64_t datagrams_tx() const { return datagrams_tx_; }
  void reset_datagram_count() { datagrams_tx_ = 0; }

  [[nodiscard]] std::vector<int> neighbors_of(int i) const {
    std::vector<int> out;
    if (i > 0) out.push_back(i - 1);
    if (i + 1 < count_) out.push_back(i + 1);
    return out;
  }

 private:
  struct Node {
    Node(TransportWorld& w, int i)
        : platform(w.events_, w.master_.fork()),
          session(
              id_of(i), platform, w.config_.session,
              [&w, i](wire::Bytes d) { w.send(i, std::move(d)); },
              w.hub_.metrics),
          mw(id_of(i), platform, {}, &w.hub_) {
      platform.session = &session;
      session.attach(&mw);
    }

    SessionPlatform platform;
    net::NetSession session;
    Middleware mw;
    bool alive = true;
  };

  [[nodiscard]] int key(int i, int j) const { return i * count_ + j; }

  void send(int i, wire::Bytes bytes) {
    if (!nodes_[i]->alive) return;
    ++datagrams_tx_;  // one transmission, any receiver count (broadcast)
    for (const int j : neighbors_of(i)) {
      if (drop_filter_ && drop_filter_(i, j, bytes)) continue;
      const auto deliver = [this, j](const wire::Bytes& damaged) {
        const auto copy = std::make_shared<const wire::Bytes>(damaged);
        events_.schedule_after(kLinkDelay,
                               [this, j, copy] { receive(j, *copy); });
      };
      if (faulty_) {
        links_.at(key(i, j))->process(bytes, deliver, id_of(i), id_of(j));
      } else {
        deliver(bytes);
      }
    }
  }

  void receive(int j, const wire::Bytes& bytes) {
    if (!nodes_[j]->alive) return;
    nodes_[j]->session.on_raw(bytes);
  }

  int count_;
  TransportConfig config_;
  sim::EventQueue events_;
  Rng master_;
  obs::Hub hub_;
  SessionPlatform channel_platform_;  // clock + rng source for the injectors
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<int, std::unique_ptr<net::FaultInjector>> links_;
  bool faulty_ = false;
  DropFilter drop_filter_;
  std::int64_t datagrams_tx_ = 0;
};

/// True when the (well-formed) datagram carries any engine frame.
bool carries_data(const wire::Bytes& datagram) {
  net::BatchReader r(datagram);
  net::Chunk c;
  while (r.next(c)) {
    if (c.kind == net::ChunkKind::kData) return true;
  }
  return false;
}

constexpr int kNodes = 6;

obs::Gauge& result(const std::string& name) {
  return obs::default_hub().metrics.gauge("bench.transport." + name);
}

}  // namespace

int main() {
  exp::section("TRANSPORT(1): datagrams per delivered tuple");
  std::printf("%-11s %-11s %-13s %-10s %-10s\n", "datagrams", "delivered",
              "dgrams/tuple", "batch.tx", "chunks");
  constexpr int kTuples = 20;
  const Pattern all = Pattern::of_type(tuples::GradientTuple::kTag);
  {
    TransportConfig config;
    config.session.discovery = fast_discovery();
    // A quiet beacon cadence so the measured window is dominated by
    // data traffic.
    config.session.discovery.beacon_period = SimTime::from_millis(500);

    TransportWorld world(7, kNodes, config);
    world.start();
    world.run_until(SimTime::from_seconds(1));
    world.reset_datagram_count();
    // One burst in one event instant: a relay reacting to a 20-frame
    // batch re-broadcasts its 20 reactions as one datagram.
    world.at(SimTime::from_millis(1001), [&] {
      for (int t = 0; t < kTuples; ++t) {
        world.inject(0, std::string("t") + std::to_string(t));
      }
    });
    world.run_until(SimTime::from_seconds(3));
    std::int64_t delivered = 0;
    for (int i = 0; i < kNodes; ++i) {
      delivered += static_cast<std::int64_t>(world.mw(i).read(all).size());
    }
    auto& m = world.hub().metrics;
    const double per_tuple =
        static_cast<double>(world.datagrams_tx()) / delivered;
    std::printf("%-11lld %-11lld %-13.2f %-10lld %-10lld\n",
                static_cast<long long>(world.datagrams_tx()),
                static_cast<long long>(delivered), per_tuple,
                static_cast<long long>(m.get("net.batch.tx")),
                static_cast<long long>(m.get("net.batch.chunks")));
    result("batch.datagrams").set(static_cast<double>(world.datagrams_tx()));
    result("batch.delivered").set(static_cast<double>(delivered));
    obs::default_hub().metrics.merge_from(m);
  }
  std::printf(
      "expected shape: every tuple delivered everywhere in well under one\n"
      "datagram per delivered tuple (one frame per datagram would cost\n"
      "more than one).\n");

  exp::section(
      "TRANSPORT(2): retraction delivery at drop 0.3, best-effort vs "
      "reliable");
  std::printf("%-6s %-10s %-8s %-10s %-9s %-9s %-9s %-11s\n", "seed", "mode",
              "leaked", "delivery", "rel.tx", "rel.rtx", "rel.acked",
              "datagrams");
  double leaked_total[2] = {0.0, 0.0};
  for (const bool reliable : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      TransportConfig config;
      config.session.discovery = fast_discovery();
      config.session.reliable = reliable;
      config.fault.drop = 0.3;

      TransportWorld world(seed, kNodes, config);
      world.start();
      world.at(SimTime::from_seconds(1), [&] { world.inject(0, "main"); });
      world.at(SimTime::from_millis(1200),
               [&] { world.inject(kNodes - 1, "doomed"); });
      world.at(SimTime::from_seconds(2), [&] { world.set_faulty(true); });
      // The doomed source dies mid-chaos: its neighbour detects the
      // silence and runs the retraction cascade over the lossy channel.
      world.at(SimTime::from_seconds(3), [&] { world.kill(kNodes - 1); });
      world.at(SimTime::from_seconds(10), [&] {
        world.set_faulty(false);
        world.flush_links();
      });
      world.run_until(SimTime::from_seconds(14));

      const Pattern doomed =
          Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "doomed");
      int leaked = 0;
      int alive = 0;
      for (int i = 0; i < kNodes; ++i) {
        if (!world.alive(i)) continue;
        ++alive;
        if (!world.mw(i).read(doomed).empty()) ++leaked;
      }
      auto& m = world.hub().metrics;
      std::printf("%-6llu %-10s %-8d %-10.3f %-9lld %-9lld %-9lld %-11lld\n",
                  static_cast<unsigned long long>(seed),
                  reliable ? "reliable" : "best", leaked,
                  static_cast<double>(alive - leaked) / alive,
                  static_cast<long long>(m.get("net.rel.tx")),
                  static_cast<long long>(m.get("net.rel.rtx")),
                  static_cast<long long>(m.get("net.rel.acked")),
                  static_cast<long long>(world.datagrams_tx()));
      leaked_total[reliable ? 1 : 0] += leaked;
      obs::default_hub().metrics.merge_from(m);
    }
  }
  result("best_effort.leaked").set(leaked_total[0]);
  result("reliable.leaked").set(leaked_total[1]);
  std::printf(
      "expected shape: the best-effort rows strand stale replicas (one\n"
      "lost RETRACT per cascade hop is a permanent leak); the reliable\n"
      "rows reach delivery 1.0 within the horizon, paid for in rel.rtx.\n");

  exp::section("TRANSPORT(3): anti-entropy heal cost after a silent hole");
  {
    constexpr int kNodes4 = 4;
    constexpr int kSeeded = 30;  // the store every node already holds
    constexpr int kHoles = 2;    // injected while one link eats DATA

    TransportConfig config;
    config.session.discovery = fast_discovery();
    config.session.digest_period = SimTime::from_millis(500);
    config.session.digest_buckets = 64;

    TransportWorld world(11, kNodes4, config);
    world.start();
    world.run_until(SimTime::from_millis(500));
    for (int t = 0; t < kSeeded; ++t) {
      world.inject(0, std::string("s") + std::to_string(t));
    }
    world.run_until(SimTime::from_seconds(2));
    // The silent hole: link 1→2 eats every DATA-carrying datagram while
    // two fresh tuples flood; HELLOs keep flowing, so no link event
    // fires and no restart resync runs.
    world.at(SimTime::from_seconds(2), [&] {
      world.set_drop_filter([](int from, int to, const wire::Bytes& d) {
        return from == 1 && to == 2 && carries_data(d);
      });
    });
    world.at(SimTime::from_millis(2100), [&] {
      for (int t = 0; t < kHoles; ++t) {
        world.inject(0, std::string("h") + std::to_string(t));
      }
    });
    world.at(SimTime::from_seconds(3), [&] { world.set_drop_filter(nullptr); });
    world.run_until(SimTime::from_seconds(6));

    int healed = 0;
    for (int i = 0; i < kNodes4; ++i) {
      if (world.mw(i).read(all).size() ==
          static_cast<std::size_t>(kSeeded + kHoles)) {
        ++healed;
      }
    }
    auto& m = world.hub().metrics;
    std::printf("%-8s %-8s %-8s %-12s %-12s %-12s\n", "store", "holes",
                "healed", "sync.resend", "digest_tx", "digest_rx");
    std::printf("%-8d %-8d %-8s %-12lld %-12lld %-12lld\n", kSeeded, kHoles,
                healed == kNodes4 ? "4/4" : "NO",
                static_cast<long long>(m.get("net.sync.resend")),
                static_cast<long long>(m.get("net.sync.digest_tx")),
                static_cast<long long>(m.get("net.sync.digest_rx")));
    result("sync.resend").set(static_cast<double>(m.get("net.sync.resend")));
    obs::default_hub().metrics.merge_from(m);
    std::printf(
        "expected shape: all four stores converge with sync.resend well\n"
        "below the %d-tuple store — the digest diff re-offers the holes\n"
        "(plus the odd same-bucket neighbour), never the whole store.\n",
        kSeeded);
  }

  exp::emit_json("transport");
  return 0;
}
