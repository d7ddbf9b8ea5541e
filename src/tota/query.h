// Query planner — compiles a Pattern into an index-assisted access plan
// over TupleSpace's secondary indexes (docs/QUERY.md).
//
// A pattern names up to three metadata/type constraints: the type tag
// (indexed by the type buckets), the propagated flag (indexed by the
// propagated uids when it asks for `true`), and the replica's parent (not
// indexed: always a residual check).  `compile` looks at the actual
// bucket sizes of the target space and picks the path with the fewest
// candidates, then marks which constraints remain to be checked per
// candidate (the residual).  Plans are per-query and cost one scan of
// the node's few type tags, whose result the executor reuses — the store
// can change arbitrarily between queries.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tota/pattern.h"

namespace tota {

class TupleSpace;

namespace query {

/// How the executor walks the store.  Every path yields candidates in
/// ascending uid order, so plan results are bit-for-bit a full scan's.
enum class AccessPath : std::uint8_t {
  kTypeIndex,        // the pattern's type-tag bucket
  kPropagatedIndex,  // the propagated set (pattern wants propagated==true)
  kFullScan,         // the whole store
};

const char* to_string(AccessPath path);

struct Plan {
  AccessPath path = AccessPath::kFullScan;
  /// Candidates the chosen path will touch (exact: index sizes are known
  /// at compile time; the store is not mutated while a query runs).
  std::size_t candidates = 0;
  /// The pattern's type bucket, priced here and walked for kTypeIndex.
  std::size_t type_bucket = 0;
  // Residual constraints — whatever the access path doesn't imply.
  bool check_type = false;
  bool check_parent = false;
  bool check_propagated = false;
  bool check_fields = false;

  [[nodiscard]] bool residual() const {
    return check_type || check_parent || check_propagated || check_fields;
  }
};

/// Picks the most selective access path for `pattern` over `space`.
/// Ties break toward the cheaper walk: type bucket (entry pointers, read
/// in order) over the propagated uids (one uid lookup each) over the full
/// scan.
[[nodiscard]] Plan compile(const Pattern& pattern, const TupleSpace& space);

}  // namespace query
}  // namespace tota
