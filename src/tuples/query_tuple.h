// QueryTuple — paper §5.2, second solution (request/response gathering):
//
// "user devices can inject tuples describing the information they are
// looking for … query tuples create a structure to be used by answer
// tuples to reach the enquiring device."
//
// A QueryTuple is a distance field whose `name` is the query string and
// whose source is the enquirer ("home").  Information nodes subscribe to
// query arrivals and respond with an AnswerTuple that descends the query
// field back to the enquirer — reproducing the Roman/Julien/Huang
// network-abstractions pattern entirely inside TOTA.
#pragma once

#include <optional>

#include "tota/pattern.h"
#include "tuples/field_tuple.h"
#include "wire/buffer.h"

namespace tota::tuples {

class QueryTuple : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.query";
  /// Content field carrying an encoded Pattern (tota/pattern.h).
  static constexpr const char* kPatternField = "pattern";

  QueryTuple() = default;

  /// `what` describes the requested information; `scope` bounds the
  /// search ring ("all gas stations within 10 miles" style interest
  /// scopes become hop scopes here).
  explicit QueryTuple(std::string what, int scope = kUnbounded)
      : FieldTuple(std::move(what), scope) {}

  [[nodiscard]] std::string what() const { return name(); }
  /// The enquiring node (the field's source).
  [[nodiscard]] NodeId home() const { return source(); }

  /// Attaches a structured predicate, so the query carries *what to
  /// match* — not just a name — to every node it reaches.  Rides the
  /// tuple's ordinary content, so it round-trips the wire codec like any
  /// other field.
  QueryTuple& with_predicate(const Pattern& pattern) {
    wire::Writer w;
    pattern.encode(w);
    content().set(kPatternField, w.take());
    return *this;
  }

  [[nodiscard]] bool has_predicate() const {
    return content().has(kPatternField);
  }

  /// The attached predicate, if any.  Decoding is bounds-checked; a
  /// malformed blob (hostile remote) throws wire::DecodeError.
  [[nodiscard]] std::optional<Pattern> predicate() const {
    const wire::Value* blob = content().find(kPatternField);
    if (blob == nullptr) return std::nullopt;
    wire::Reader r(blob->as_blob());
    Pattern p = Pattern::decode(r);
    r.expect_done();
    return p;
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<QueryTuple>(*this);
  }
};

}  // namespace tota::tuples
