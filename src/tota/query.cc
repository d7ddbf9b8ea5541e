#include "tota/query.h"

#include "tota/tuple_space.h"

namespace tota::query {

const char* to_string(AccessPath path) {
  switch (path) {
    case AccessPath::kTypeIndex:
      return "type_index";
    case AccessPath::kPropagatedIndex:
      return "propagated_index";
    case AccessPath::kFullScan:
      return "full_scan";
  }
  return "?";
}

Plan compile(const Pattern& pattern, const TupleSpace& space) {
  Plan plan;
  plan.path = AccessPath::kFullScan;
  plan.candidates = space.size();

  // Earlier options win ties, so the order here encodes walk cost.
  if (pattern.type_tag()) {
    const TupleSpace::TypeBucketRef bucket =
        space.type_bucket(*pattern.type_tag());
    plan.type_bucket = bucket.index;
    if (bucket.size <= plan.candidates) {
      plan.path = AccessPath::kTypeIndex;
      plan.candidates = bucket.size;
    }
  }
  // Only propagated==true has an index; ==false is residual-only.
  if (pattern.propagated() && *pattern.propagated()) {
    const std::size_t n = space.propagated_count();
    if (n < plan.candidates) {
      plan.path = AccessPath::kPropagatedIndex;
      plan.candidates = n;
    }
  }

  plan.check_type =
      pattern.type_tag().has_value() && plan.path != AccessPath::kTypeIndex;
  plan.check_parent = pattern.parent().has_value();
  plan.check_propagated = pattern.propagated().has_value() &&
                          plan.path != AccessPath::kPropagatedIndex;
  plan.check_fields = !pattern.constraints().empty();
  return plan;
}

}  // namespace tota::query
