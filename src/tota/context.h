// Context passed to tuple propagation hooks.
//
// When a tuple's hooks (decide_enter / decide_store / decide_propagate /
// change_content / apply_effects) run on a node, they see that node's
// local world only: its id, its physical position (location sensor), the
// hop count the tuple has travelled, who handed the tuple over, the local
// tuple space, and the local clock.  Nothing global — tuples must build
// global structure from strictly local decisions, which is the point of
// the TOTA model.
#pragma once

#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"

namespace tota {

class TupleSpace;
class Pattern;
class Tuple;

/// Mutating operations a propagating tuple may perform on the node it is
/// crossing (the paper: propagation rules can "delet[e]/modify[…] specific
/// tuples in the propagation nodes").  Provided by the engine; removals
/// performed through here fire kTupleRemoved events like any other.
class SpaceOps {
 public:
  virtual ~SpaceOps() = default;

  /// Removes and returns local tuples matching `pattern`.
  virtual std::vector<std::shared_ptr<const Tuple>> take_local(
      const Pattern& pattern) = 0;
};

struct Context {
  /// The node the hook is running on.
  NodeId self;
  /// The neighbour that sent this copy; equals `self` at injection.
  NodeId from;
  /// Hops travelled from the injecting node (0 at the source).
  int hop = 0;
  /// Local middleware clock.
  SimTime now;
  /// Location-sensor reading (GPS / Wi-Fi triangulation stand-in).
  Vec2 position;
  /// Read access to the node's local tuple space.
  const TupleSpace& space;
  /// Node-local deterministic randomness.
  Rng& rng;
  /// Mutating space operations for effectful tuples; may be null when a
  /// hook runs outside an engine (unit tests).
  SpaceOps* ops = nullptr;
};

}  // namespace tota
