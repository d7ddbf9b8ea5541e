// NeighborValueTable — the justification oracle of self-maintenance.
//
// Because every propagation is a broadcast, a node overhears the replica
// values its one-hop neighbours hold.  This table records them:
// uid → neighbour → hop value at that neighbour.  The engine consults it
// to decide whether a stored replica is *justified* — some current
// neighbour holds the same tuple at a strictly smaller hop value, i.e. a
// shorter support chain towards the source exists next door (the full
// essay lives in engine.h).
//
// Determinism note: the outer map is an unordered_map, whose iteration
// order is an accident of the standard library's bucket layout.  Nothing
// that leaves the table may depend on it: forget_neighbor() sorts the
// uids it reports, so the recheck cascade it starts (and therefore the
// broadcast/RNG draw order of a whole simulation) is a function of the
// table's contents alone.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace tota {

class NeighborValueTable {
 public:
  /// Records that neighbour `n` currently holds `uid` at `hop`.
  void note(const TupleUid& uid, NodeId n, int hop);

  /// Forgets what `n` held for `uid` (it retracted).  When the row
  /// empties and `retain_row` is false (no local replica left that a
  /// future value could justify), the row itself is dropped.
  void forget(const TupleUid& uid, NodeId n, bool retain_row);

  /// Drops everything `n` held (the link went down); returns the uids
  /// whose support changed, sorted ascending.
  std::vector<TupleUid> forget_neighbor(NodeId n);

  /// True when some current neighbour holds `uid` strictly below `hop` —
  /// the value-justification test.
  [[nodiscard]] bool supports(const TupleUid& uid, int hop) const;

  [[nodiscard]] std::size_t rows() const { return values_.size(); }

 private:
  /// What one neighbour holds.  A row has one entry per neighbour that
  /// carries the tuple — a handful — so a flat vector beats a node-based
  /// map; entry order within a row never shows in any result.
  struct Holding {
    NodeId neighbor;
    int hop;
  };
  /// Removes `n`'s entry from `row`; false when it had none.
  static bool erase(std::vector<Holding>& row, NodeId n);

  std::unordered_map<TupleUid, std::vector<Holding>> values_;
};

}  // namespace tota
