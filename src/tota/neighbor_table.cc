#include "tota/neighbor_table.h"

#include <algorithm>

namespace tota {

bool NeighborValueTable::erase(std::vector<Holding>& row, NodeId n) {
  const auto it = std::find_if(row.begin(), row.end(), [n](const Holding& h) {
    return h.neighbor == n;
  });
  if (it == row.end()) return false;
  *it = row.back();
  row.pop_back();
  return true;
}

void NeighborValueTable::note(const TupleUid& uid, NodeId n, int hop) {
  auto& row = values_[uid];
  for (auto& h : row) {
    if (h.neighbor == n) {
      h.hop = hop;
      return;
    }
  }
  row.push_back(Holding{n, hop});
}

void NeighborValueTable::forget(const TupleUid& uid, NodeId n,
                                bool retain_row) {
  const auto it = values_.find(uid);
  if (it == values_.end()) return;
  erase(it->second, n);
  if (it->second.empty() && !retain_row) values_.erase(it);
}

std::vector<TupleUid> NeighborValueTable::forget_neighbor(NodeId n) {
  std::vector<TupleUid> affected;
  for (auto& [uid, row] : values_) {
    if (erase(row, n)) affected.push_back(uid);
  }
  std::sort(affected.begin(), affected.end());
  return affected;
}

bool NeighborValueTable::supports(const TupleUid& uid, int hop) const {
  const auto it = values_.find(uid);
  if (it == values_.end()) return false;
  // A shorter support chain next door.
  return std::any_of(it->second.begin(), it->second.end(),
                     [hop](const Holding& h) { return h.hop < hop; });
}

}  // namespace tota
