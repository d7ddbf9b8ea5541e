// Pattern matching over tuples — the paper's `read(Tuple template)`.
//
// A Pattern matches a tuple when (a) the type tag matches, if constrained,
// and (b) every pattern field exists in the tuple's content and satisfies
// its Pred (tota/predicate.h): exact value, wildcard existence, ordered
// comparison, range, set membership, or a conjunction.  Fields the pattern
// doesn't mention are unconstrained, mirroring Linda templates where
// formal fields match anything.
//
// A pattern constrains tuple content only, never replica metadata: a
// TupleSpace read, a subscription and a continuous query all match the
// same template the same way.
//
// Because constraints are data, patterns compare structurally
// (`equivalent`, the paper's unsubscribe-by-template) and serialize
// through the wire codec so a QueryTuple can carry one remotely.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

  /// Type + field constraints.
  [[nodiscard]] bool matches(const Tuple& tuple) const;
  [[nodiscard]] bool matches_record(const std::string& tag,
                                    const wire::Record& content) const;

  /// Field constraints only (caller has already resolved the type).
  [[nodiscard]] bool matches_fields(const wire::Record& content) const;

  /// The type constraint, if any — what the TupleSpace type index and the
  /// EventBus subscription buckets key on.
  [[nodiscard]] const std::optional<std::string>& type_tag() const {
    return type_;
  }
  [[nodiscard]] const std::vector<FieldConstraint>& constraints() const {
    return fields_;
  }

  /// Structural equality used by `unsubscribe(template)`: equal type
  /// and field constraints (same fields, same predicates, same
  /// order).  Predicates are ASTs, so two independently-built patterns
  /// with identical clauses are equivalent.
  [[nodiscard]] bool equivalent(const Pattern& other) const;

  // Wire codec (flags + constraints), so a pattern rides inside tuples.
  void encode(wire::Writer& w) const;
  static Pattern decode(wire::Reader& r);

  [[nodiscard]] std::string str() const;

 private:
  std::optional<std::string> type_;
  std::vector<FieldConstraint> fields_;
};

}  // namespace tota
