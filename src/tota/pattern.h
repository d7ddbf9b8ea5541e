// Pattern matching over tuples — the paper's `read(Tuple template)`.
//
// A Pattern matches a tuple when (a) the type tag matches, if constrained,
// and (b) every pattern field exists in the tuple's content and satisfies
// its Pred (tota/predicate.h): exact value, wildcard existence, ordered
// comparison, range, set membership, or a conjunction.  Fields the pattern
// doesn't mention are unconstrained, mirroring Linda templates where
// formal fields match anything.
//
// Space queries may additionally constrain replica *metadata* — the
// neighbour a replica was received from (`from_parent`) and the
// re-propagation flag (`propagated_only`).  `propagated_only(true)` gives
// the query planner (tota/query.h) an extra index-assisted access path;
// a parent is checked per candidate.  Metadata constraints apply only
// where replicas have metadata, i.e. TupleSpace queries and
// continuous queries.  `matches()` / `matches_record()` check type +
// fields only (events carry no entry metadata).
//
// Because constraints are data, patterns compare structurally
// (`equivalent`, the paper's unsubscribe-by-template) and serialize
// through the wire codec so QueryTuple/PROBE can carry one remotely.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "tota/predicate.h"
#include "wire/buffer.h"
#include "wire/record.h"

namespace tota {

class Tuple;

class Pattern {
 public:
  /// One field constraint: the field must exist and satisfy `pred`.  The
  /// name is interned when the pattern is built, so matching compares
  /// atoms.
  struct FieldConstraint {
    wire::Atom name;
    Pred pred;
    friend bool operator==(const FieldConstraint&,
                           const FieldConstraint&) = default;
  };

  Pattern() = default;

  /// Convenience: match any tuple of a given type tag.
  static Pattern of_type(std::string tag);

  /// Constrains the tuple's dynamic type tag.
  Pattern& type(std::string tag);

  /// Field must exist and equal `value` — sugar for where(f, Pred::eq).
  Pattern& eq(std::string_view field, wire::Value value);

  /// Field must merely exist (any value) — a Linda formal.
  Pattern& exists(std::string_view field);

  /// Field must exist and satisfy `pred`.
  Pattern& where(std::string_view field, Pred pred);

  /// Replica metadata: only replicas received from `parent`.
  Pattern& from_parent(NodeId parent);

  /// Replica metadata: only replicas whose propagated flag equals `flag`.
  Pattern& propagated_only(bool flag = true);

  /// Type + field constraints (metadata constraints don't apply: a bare
  /// tuple has no replica metadata).
  [[nodiscard]] bool matches(const Tuple& tuple) const;
  [[nodiscard]] bool matches_record(const std::string& tag,
                                    const wire::Record& content) const;

  /// Field constraints only (caller has already resolved the type).
  [[nodiscard]] bool matches_fields(const wire::Record& content) const;

  /// Metadata constraints only, against one replica's entry metadata.
  [[nodiscard]] bool matches_meta(NodeId parent, bool propagated) const;

  /// The type constraint, if any — what the TupleSpace type index and the
  /// EventBus subscription buckets key on.
  [[nodiscard]] const std::optional<std::string>& type_tag() const {
    return type_;
  }
  [[nodiscard]] const std::optional<NodeId>& parent() const { return parent_; }
  [[nodiscard]] const std::optional<bool>& propagated() const {
    return propagated_;
  }
  [[nodiscard]] const std::vector<FieldConstraint>& constraints() const {
    return fields_;
  }

  /// Structural equality used by `unsubscribe(template)`: equal type,
  /// metadata, and field constraints (same fields, same predicates, same
  /// order).  Predicates are ASTs, so two independently-built patterns
  /// with identical clauses are equivalent.
  [[nodiscard]] bool equivalent(const Pattern& other) const;

  // Wire codec (flags + constraints), so a pattern rides inside frames.
  void encode(wire::Writer& w) const;
  static Pattern decode(wire::Reader& r);

  /// Record form for embedding in tuple content: the full encoding under
  /// "pattern", plus the type tag duplicated under "type" so remote nodes
  /// can route on it without decoding the predicate body.
  [[nodiscard]] wire::Record to_record() const;
  static Pattern from_record(const wire::Record& record);

  [[nodiscard]] std::string str() const;

 private:
  std::optional<std::string> type_;
  std::optional<NodeId> parent_;
  std::optional<bool> propagated_;
  std::vector<FieldConstraint> fields_;
};

}  // namespace tota
