#include "tuples/nav_tuple.h"

namespace tota::tuples {

NavTuple::NavTuple(std::string key, Vec2 target, std::string purpose) {
  content()
      .set("key", std::move(key))
      .set("target", target)
      .set("purpose", std::move(purpose));
}

bool NavTuple::decide_enter(const Context& ctx) {
  if (ctx.hop == 0) return true;
  if (best_ < 0.0) return true;  // first hop out of the requester
  // Strictly greedy: only nodes closer to the target than the last relay
  // carry the navigation forward.
  return distance(ctx.position, target()) < best_;
}

void NavTuple::change_content(const Context& ctx) {
  if (ctx.hop == 0) content().set(kSourceField, ctx.self);
  content().set(kHopcountField, ctx.hop);  // the reply trail's structure
  best_ = distance(ctx.position, target());
}

bool NavTuple::decide_propagate(const Context&) {
  // Always announce; neighbours that are not closer simply refuse entry,
  // and the node where *no* neighbour is closer is the home (detected at
  // the application layer from its coordinate beacons).
  return true;
}

bool NavTuple::superseded_by(int hop) const {
  // Trail refinement: a copy that reaches this node over fewer hops makes
  // a better reply trail.
  return hop < this->hop();
}

void NavTuple::encode_extra(wire::Writer& w) const { w.f64(best_); }

void NavTuple::decode_extra(wire::Reader& r) {
  best_ = r.f64();
  if (!(best_ >= -1.0) || best_ > 1e12) throw wire::DecodeError("bad best");
}

}  // namespace tota::tuples
