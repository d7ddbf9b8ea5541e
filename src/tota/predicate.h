// Typed field predicates — the structured constraint language of Pattern.
//
// A Pred is a small AST over one field's wire::Value: existence, typed
// equality, ordered comparisons (numbers and strings, via
// wire::compare_ordered), ranges, set membership, and conjunction.
// Because predicates are data rather than closures, they compare
// structurally (so `unsubscribe(template)` works — docs/QUERY.md) and
// serialize through the wire codec so a QueryTuple can carry a query to
// a remote node.
//
// Semantics are total and network-safe: a predicate never throws during
// evaluation.  Ordered comparisons over unordered pairings (string vs
// int, NaN, blobs) simply don't match, and equality is exact-typed —
// Value{1} does not equal Value{1.0}, matching Record's own `==`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wire/buffer.h"
#include "wire/value.h"

namespace tota {

/// Wire discriminators; stable on the air — never reorder.
enum class PredOp : std::uint8_t {
  kExists = 0,   // field present, any value (a Linda formal)
  kEq = 1,       // exactly equal (type-sensitive)
  kNe = 2,       // present and not exactly equal
  kLt = 3,       // ordered comparisons over numbers/strings …
  kLe = 4,
  kGt = 5,
  kGe = 6,
  kBetween = 7,  // lo <= value <= hi (inclusive)
  kAnyOf = 8,    // exactly equal to one of N options
  kAllOf = 9,    // conjunction of sub-predicates
};

const char* to_string(PredOp op);

class Pred {
 public:
  /// Default is the weakest constraint: the field merely exists.
  Pred() = default;

  static Pred exists();
  static Pred eq(wire::Value value);
  static Pred ne(wire::Value value);
  static Pred lt(wire::Value bound);
  static Pred le(wire::Value bound);
  static Pred gt(wire::Value bound);
  static Pred ge(wire::Value bound);
  /// Inclusive on both ends.
  static Pred between(wire::Value lo, wire::Value hi);
  static Pred any_of(std::vector<wire::Value> options);
  static Pred all_of(std::vector<Pred> parts);

  /// Evaluates against a field value that exists.  (Absent fields never
  /// match any predicate; Pattern enforces that before calling eval.)
  [[nodiscard]] bool eval(const wire::Value& value) const;

  [[nodiscard]] PredOp op() const { return op_; }

  /// Structural equality — what makes predicate patterns comparable.
  friend bool operator==(const Pred& a, const Pred& b) = default;

  // Wire codec.  Decode is bounds-checked and depth/width-limited so a
  // hostile remote predicate cannot blow the stack or the heap.
  void encode(wire::Writer& w) const;
  static Pred decode(wire::Reader& r);

  [[nodiscard]] std::string str() const;

 private:
  Pred(PredOp op, std::vector<wire::Value> values, std::vector<Pred> parts);
  static Pred decode_at(wire::Reader& r, int depth);

  PredOp op_ = PredOp::kExists;
  /// Operands: 1 for eq/ne/lt/le/gt/ge, 2 for between, N for any_of.
  std::vector<wire::Value> values_;
  /// Sub-predicates of all_of.
  std::vector<Pred> parts_;
};

}  // namespace tota
