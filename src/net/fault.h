// FaultInjector — deterministic adversity for any datagram path.
//
// TOTA's claim (paper §3–§4) is that distributed tuple structures stay
// coherent on an *adverse* dynamic network; a benign loopback run proves
// nothing.  This layer wraps a datagram path — between
// `UdpTransport::drain` and the datagram sink on a live node, or inside
// `sim::ShardedSim::broadcast` per delivery — and applies a configurable,
// seeded-Rng-driven mix of the failure modes a connectionless broadcast
// medium actually exhibits (BeeTS makes the same argument for broadcast
// tuple spaces: loss, duplication and reordering are the normal operating
// mode, not the exception):
//
//   drop        the datagram silently disappears
//   duplicate   the datagram is delivered twice
//   reorder     the datagram is held in a bounded queue and released
//               after up to `reorder_window` later datagrams have
//               overtaken it (or after `reorder_max_hold`, drained via a
//               Platform::schedule timer — so a lull in traffic cannot
//               pin a datagram forever)
//   truncate    the datagram is cut short at a random byte
//   corrupt     one random bit is flipped
//   partition   scheduled windows during which the path is severed
//               (bidirectionally, when both directions of a link share
//               the same FaultPlan)
//
// All randomness comes from an Rng forked off the owning platform's
// seeded stream at construction, so a faulted run is exactly as
// reproducible as a benign one: same seed, same faults, same order.  A
// default (all-zero) FaultPlan is `enabled() == false` and its owners
// bypass the injector entirely — zero behavioural change and zero extra
// Rng draws, which is what keeps the committed scenario-bench baselines
// bit-for-bit stable.
//
// Every fault applied is counted (net.fault.*, docs/NET.md), and the
// counters obey a conservation law the soak harness asserts per seed:
//
//   processed == delivered + drop + partition_drop + held()
//
// (duplicates are *extra* deliveries, counted separately as net.fault.dup;
// truncated/corrupted datagrams still count as delivered — they are
// damaged, not lost, and the receiver's decode path accounts for them.)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota::net {

/// One adversity configuration.  The default-constructed plan is benign
/// (`enabled() == false`); owners must bypass the injector then.
struct FaultPlan {
  /// Probability a datagram is silently dropped.
  double drop = 0.0;
  /// Probability a datagram is delivered twice.
  double duplicate = 0.0;
  /// Probability a datagram is held back for reordering (needs
  /// reorder_window > 0 to take effect).
  double reorder = 0.0;
  /// How many later datagrams may overtake a held one before it is
  /// released; also bounds the hold queue's growth per lull.
  int reorder_window = 0;
  /// Hard time bound on holding a datagram: a traffic lull drains the
  /// hold queue via a scheduled timer instead of pinning it forever.
  SimTime reorder_max_hold = SimTime::from_millis(200);
  /// Probability a datagram is truncated at a random byte boundary.
  double truncate = 0.0;
  /// Probability one random bit of the datagram is flipped.
  double corrupt = 0.0;

  /// A scheduled severance window on this path.  With an empty `group`
  /// the path is cut for everyone; with a non-empty group the path is cut
  /// only between endpoints on opposite sides of the group boundary
  /// (exactly one endpoint inside `group`) — configure both directions of
  /// a link with the same windows for a bidirectional partition.
  struct Partition {
    SimTime start;
    SimTime duration;
    std::vector<NodeId> group;
  };
  std::vector<Partition> partitions;

  /// True when any fault can ever fire; false plans must bypass the
  /// injector (this is what keeps benign runs bit-for-bit unchanged).
  [[nodiscard]] bool enabled() const;

  /// True when a datagram travelling `a` → `b` at `now` falls inside an
  /// active partition window.  Invalid endpoints count as outside every
  /// group, so empty-group (sever-everything) windows still apply to
  /// paths with unknown endpoints.
  [[nodiscard]] bool severs(SimTime now, NodeId a, NodeId b) const;
};

/// Applies one FaultPlan to a stream of datagrams.  Single-threaded,
/// like everything around it; timers and randomness come from the owning
/// Platform, so the injector runs identically under the simulator's
/// virtual clock, a test double, or the live event loop.
class FaultInjector {
 public:
  /// Receives a (possibly damaged) datagram that survived the faults.
  /// Held datagrams keep their Deliver and invoke it at release, so the
  /// callback must stay valid for up to `reorder_max_hold`.
  using Deliver = std::function<void(const wire::Bytes&)>;

  /// Forks the injector's Rng off `platform.rng()` and registers the
  /// net.fault.* counters in `metrics` (both must outlive the injector).
  FaultInjector(FaultPlan plan, tota::Platform& platform,
                obs::MetricsRegistry& metrics);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Runs one datagram through the plan: delivers it (possibly damaged,
  /// possibly twice), holds it for reordering, or drops it.  `from`/`to`
  /// identify the path's endpoints for group partitions; leave invalid
  /// when unknown (live receive path).
  void process(std::span<const std::uint8_t> bytes, Deliver deliver,
               NodeId from = NodeId{}, NodeId to = NodeId{});

  /// Releases every held datagram immediately (in hold order).  Owners
  /// call this at quiesce/shutdown so nothing stays in flight.
  void flush();

  /// Datagrams currently held for reordering.
  [[nodiscard]] std::size_t held() const { return held_.size(); }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct Held {
    wire::Bytes bytes;
    Deliver deliver;
    int overtakes_left;  // released when this many later datagrams passed
    SimTime deadline;    // …or at this instant, whichever comes first
    bool duplicate;
  };

  void deliver_now(const wire::Bytes& bytes, const Deliver& deliver,
                   bool duplicate);
  /// Moves every held entry matching `pred` out (preserving hold order)
  /// and delivers it; deliveries never count as passing traffic, so a
  /// release cannot cascade releases.
  template <typename Pred>
  void release_if(Pred pred);
  void arm_hold_timer();
  void on_hold_timer();

  FaultPlan plan_;
  tota::Platform& platform_;
  Rng rng_;
  std::deque<Held> held_;
  Platform::TimerId hold_timer_ = Platform::kInvalidTimer;

  obs::Counter& processed_;
  obs::Counter& delivered_;
  obs::Counter& dropped_;
  obs::Counter& duplicated_;
  obs::Counter& reordered_;
  obs::Counter& truncated_;
  obs::Counter& corrupted_;
  obs::Counter& partition_dropped_;
};

}  // namespace tota::net
