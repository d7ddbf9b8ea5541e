#include "tuples/field_tuple.h"

#include <stdexcept>
#include <string>

namespace tota::tuples {

FieldTuple::FieldTuple(std::string name, int scope) {
  set_scope(scope);
  content().set(kNameField, std::move(name));
}

void FieldTuple::set_scope(int scope) {
  if (scope < kUnbounded || scope > kMaxScope) {
    throw std::invalid_argument("FieldTuple scope " + std::to_string(scope) +
                                " outside [-1, 2^24]");
  }
  scope_ = scope;
}

bool FieldTuple::decide_enter(const Context& ctx) {
  return scope_ == kUnbounded || ctx.hop <= scope_;
}

void FieldTuple::change_content(const Context& ctx) {
  if (ctx.hop == 0) {
    content().set(kSourceField, ctx.self);
    // Source position, re-stamped whenever the (possibly mobile) source
    // re-announces; lets agents turn hop-space fields into directions.
    content().set(kOriginPosField, ctx.position);
  }
  content().set(kHopcountField, ctx.hop);
  update_fields(ctx);
}

bool FieldTuple::decide_propagate(const Context& ctx) {
  return scope_ == kUnbounded || ctx.hop < scope_;
}

bool FieldTuple::superseded_by(int hop) const {
  // Monotone distance update: the copy with the shorter travelled path
  // wins, so hopcount converges to the true BFS distance.
  return hop < this->hop();
}

void FieldTuple::update_fields(const Context&) {}

void FieldTuple::encode_extra(wire::Writer& w) const { w.svarint(scope_); }

void FieldTuple::decode_extra(wire::Reader& r) {
  const auto scope = r.svarint();
  if (scope < kUnbounded || scope > kMaxScope) {
    throw wire::DecodeError("bad scope");
  }
  scope_ = static_cast<int>(scope);
}

}  // namespace tota::tuples
