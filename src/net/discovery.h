// Discovery — neighbour presence over a beaconed broadcast medium.
//
// The simulator *knows* the topology and injects neighbour-up/down
// upcalls for free; a real radio does not, so the paper's prototype ran
// "a system to continuously detect neighboring nodes" next to the
// middleware.  This is that system: every node broadcasts a small HELLO
// beacon on a jittered period, and a neighbour is considered present
// from its first HELLO until `expiry_missed_beacons` consecutive beacons
// fail to arrive — beacon loss tolerance is the robustness knob (k-1
// lost beacons in a row are weather; k are a departed node).
//
// Mechanics (full state machine in docs/NET.md):
//   * Beacons are spaced period * (1 ± jitter) with the offset drawn
//     from the platform's seeded Rng — deterministic per seed, and
//     desynchronized between nodes so N co-started processes don't
//     transmit in lockstep bursts.
//   * Each HELLO advertises the sender's own period; the receiver arms
//     that neighbour's expiry at k * advertised_period * (1 + jitter),
//     so nodes with different beacon configs interoperate.
//   * Expiry is one cancellable platform timer per neighbour, re-armed
//     on every HELLO (this is what Platform::schedule's TimerId is for);
//     a node heard again after expiring is simply a fresh neighbour —
//     one down, one up, no flap suppression to tune.
//
// Discovery is deliberately socket-free: it emits HELLO beacons through
// a callback (the owner encodes them — a HELLO chunk on the next
// outgoing batch) and is fed decoded HELLOs by its owner
// (net::NetSession in production, a test harness in tests/test_net.cc
// and tests/test_soak.cc), and takes its clock, timers, and randomness
// from the Platform interface — so the whole state machine runs under
// the simulator's or the test double's clock.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota::net {

struct DiscoveryOptions {
  /// Nominal HELLO spacing.
  SimTime beacon_period = SimTime::from_millis(500);
  /// Each interval is period * (1 ± jitter), uniform; also widens the
  /// expiry deadline so a maximally-late beacon still counts.
  double beacon_jitter = 0.2;
  /// Consecutive missed HELLOs before a neighbour is declared gone (k).
  int expiry_missed_beacons = 3;
  /// A HELLO whose seq falls behind the last accepted one by at most
  /// this many is a reordered/duplicated stale beacon and is ignored
  /// (net.hello.stale) — it must not refresh the neighbour with old
  /// information.  A deeper regression means the peer restarted and is
  /// beaconing from zero again: the old session is torn down and the
  /// neighbour re-announced (net.hello.restart).
  std::uint64_t restart_seq_window = 16;
  /// Upper bound honoured for the peer-advertised beacon period: one
  /// malformed or hostile HELLO advertising a huge period must not pin
  /// its neighbour entry near-forever.  Clamped periods count
  /// net.hello.clamped.
  SimTime max_peer_period = SimTime::from_seconds(5);
};

class Discovery {
 public:
  /// Transmits one beacon: the owner encodes it (a HELLO chunk on the
  /// next batch via net::Batcher::hello) — discovery only owns the
  /// schedule and the (seq, period) content.
  using BeaconFn = std::function<void(std::uint64_t seq, SimTime period)>;
  using NeighborFn = std::function<void(NodeId)>;

  /// `platform` provides clock/timers/rng; `beacon` transmits one HELLO
  /// beacon.  Registers net.hello.* / net.neighbor.* in `metrics` (must
  /// outlive the discovery).
  Discovery(NodeId self, tota::Platform& platform, DiscoveryOptions options,
            BeaconFn beacon, obs::MetricsRegistry& metrics);
  ~Discovery();

  Discovery(const Discovery&) = delete;
  Discovery& operator=(const Discovery&) = delete;

  /// Neighbour appearance/disappearance sinks (the engine's
  /// on_neighbor_up/down, via LivePlatform).  Set before start().
  void on_neighbor_up(NeighborFn fn) { up_ = std::move(fn); }
  void on_neighbor_down(NeighborFn fn) { down_ = std::move(fn); }

  /// Sends the first HELLO immediately and starts the beacon schedule.
  void start();

  /// Cancels the beacon and every armed expiry timer.  Known neighbours
  /// are forgotten *silently* — shutdown must not fire down-callbacks
  /// into a stack that is being destroyed.
  void stop();

  /// Feed one received (already decoded) HELLO.  Beacons from `self` are
  /// ignored — a broadcast medium echoes one's own transmissions.  A
  /// known neighbour's HELLO is accepted only when its seq advances:
  /// stale/reordered beacons are dropped without touching the session,
  /// and a deep seq regression is treated as a peer restart (one down
  /// then one up, like a flap — upper layers resync their state).
  void on_hello(NodeId from, std::uint64_t seq, SimTime period);

  /// Currently-present neighbours, unordered.
  [[nodiscard]] std::vector<NodeId> neighbors() const;
  [[nodiscard]] bool knows(NodeId id) const {
    return neighbors_.count(id) > 0;
  }

  [[nodiscard]] const DiscoveryOptions& options() const { return options_; }

 private:
  struct Neighbor {
    SimTime last_heard;
    std::uint64_t last_seq = 0;
    tota::Platform::TimerId expiry = tota::Platform::kInvalidTimer;
  };

  void send_beacon();
  void arm_expiry(NodeId id, Neighbor& n, SimTime period);
  void expire(NodeId id);
  /// How long after a HELLO its sender stays present: k late-as-allowed
  /// beacon intervals.
  [[nodiscard]] SimTime expiry_after(SimTime period) const;

  NodeId self_;
  tota::Platform& platform_;
  DiscoveryOptions options_;
  BeaconFn beacon_;
  NeighborFn up_;
  NeighborFn down_;

  bool running_ = false;
  std::uint64_t beacon_seq_ = 0;
  tota::Platform::TimerId beacon_timer_ = tota::Platform::kInvalidTimer;
  std::unordered_map<NodeId, Neighbor> neighbors_;

  obs::Counter& hello_tx_;
  obs::Counter& hello_rx_;
  obs::Counter& hello_stale_;
  obs::Counter& hello_restart_;
  obs::Counter& hello_clamped_;
  obs::Counter& neighbor_up_;
  obs::Counter& neighbor_down_;
  obs::Gauge& neighbors_gauge_;
};

}  // namespace tota::net
