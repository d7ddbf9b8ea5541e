// Self-maintenance policy knobs.
//
// The TOTA engine keeps distributed tuple structures coherent as the
// network changes (Sec. 3: "the middleware automatically re-propagates
// tuples as soon as appropriate conditions occur").  Two mechanisms,
// described in full in engine.h's header essay:
//
//  * link-up re-propagation — every stored replica whose rule propagated
//    is re-broadcast when a new neighbour appears, so newcomers receive
//    the structures already in place;
//  * link-down retraction by *value justification* — there are no parent
//    pointers: a stored replica (other than at its source) is justified
//    while some current neighbour holds the same tuple at a strictly
//    smaller hop value.  A replica that loses justification (link break,
//    or a neighbour's RETRACT/stretch) is removed and announces its
//    removal with a RETRACT control message, cascading the check
//    outward; still-justified neighbours answer a RETRACT by
//    re-announcing their replica, which rebuilds correct values in the
//    orphaned region.  The hold_down window below plus a PROBE on its
//    expiry keep transient heals from re-seeding a region that must
//    drain (the distance-vector count-to-infinity hazard).
//
// Both can be disabled independently for the ablation benchmarks.
#pragma once

#include <cstddef>

#include "common/clock.h"

namespace tota {

struct MaintenanceOptions {
  /// Re-broadcast stored propagating replicas when a neighbour appears.
  bool repropagate_on_link_up = true;
  /// Retract unjustified replicas when their support disappears.
  bool retract_on_link_down = true;
  /// After retracting a replica, refuse to reinstall the same tuple at a
  /// value >= the removed one for this long, then PROBE the neighbourhood
  /// for surviving replicas.  This is the hold-down that lets regions cut
  /// off from a tuple's source drain completely instead of ratcheting
  /// their values upward forever (distance-vector count-to-infinity).
  /// Must comfortably exceed a few radio hops' worth of latency.
  SimTime hold_down = SimTime::from_millis(150);
};

/// How many pass-through tuple uids the dedup filter (and the repair
/// tracker) remembers.  When exceeded, the oldest half is evicted — a
/// very late duplicate of an evicted message could then be re-relayed
/// once, which is harmless; unbounded memory on "really simple devices"
/// is not.
inline constexpr std::size_t kPassthroughMemory = 4096;

}  // namespace tota
