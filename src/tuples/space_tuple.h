// SpaceTuple — physically-scoped propagation.
//
// "By relying on data acquired by proper physical localization devices,
// like GPS systems or Wi-Fi triangulation, tuples CAN provide a structure
// of space based on the actual physical location of devices and thus
// enabling a tuple to be propagated, say, at most for 10 meters from its
// source."
//
// The source stamps its position into the content; every node computes
// its metric distance from that origin and the tuple lives only within
// `radius_m`.  Replica resolution prefers the metrically closer reading
// (under mobility the same node's distance changes; the freshest smaller
// value wins, and maintenance retracts replicas that drift out of scope).
#pragma once

#include "tuples/field_tuple.h"

namespace tota::tuples {

class SpaceTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.space";

  SpaceTuple() = default;

  SpaceTuple(std::string name, double radius_m)
      : FieldTuple(std::move(name), kUnbounded), radius_m_(radius_m) {}

  [[nodiscard]] Vec2 origin() const {
    return content().at(kOriginPosField).as_vec2();
  }
  [[nodiscard]] double distance_m() const {
    return content().at(kDistanceMField).as_double();
  }
  [[nodiscard]] double radius_m() const { return radius_m_; }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<SpaceTuple>(*this);
  }

  bool decide_enter(const Context& ctx) override {
    if (ctx.hop == 0) return true;
    return distance(ctx.position, origin()) <= radius_m_;
  }

  bool decide_propagate(const Context& ctx) override {
    // Nodes at the rim still broadcast; receivers beyond the radius
    // reject on entry.  Cheap (one frame) and keeps the rim complete.
    (void)ctx;
    return true;
  }

 protected:
  void update_fields(const Context& ctx) override {
    if (ctx.hop == 0) content().set(kOriginPosField, ctx.position);
    content().set(kDistanceMField, distance(ctx.position, origin()));
  }

  void encode_extra(wire::Writer& w) const override {
    FieldTuple::encode_extra(w);
    w.f64(radius_m_);
  }

  void decode_extra(wire::Reader& r) override {
    FieldTuple::decode_extra(r);
    radius_m_ = r.f64();
    if (!(radius_m_ >= 0.0) || radius_m_ > 1e9) {
      throw wire::DecodeError("bad radius");
    }
  }

 private:
  inline static const wire::Atom kDistanceMField{"distance_m"};

  double radius_m_ = 0.0;
};

/// DirectionTuple — propagation confined to an angular sector ("the
/// spatial direction of propagation", Sec. 3).  A node enters the tuple
/// only when it lies within `half_angle` of the source's chosen bearing
/// (the first hop is exempt so the sector has a base to grow from).
class DirectionTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.direction";

  DirectionTuple() = default;

  DirectionTuple(std::string name, Vec2 bearing, double half_angle_rad,
                 int scope = kUnbounded)
      : FieldTuple(std::move(name), scope),
        bearing_(bearing.normalized()),
        cos_half_angle_(std::cos(half_angle_rad)) {}

  [[nodiscard]] Vec2 origin() const {
    return content().at(kOriginPosField).as_vec2();
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<DirectionTuple>(*this);
  }

  bool decide_enter(const Context& ctx) override {
    if (!FieldTuple::decide_enter(ctx)) return false;
    if (ctx.hop <= 1) return true;
    const Vec2 v = (ctx.position - origin()).normalized();
    if (v == Vec2{}) return true;  // standing on the origin
    return dot(v, bearing_) >= cos_half_angle_;
  }

 protected:
  void update_fields(const Context& ctx) override {
    if (ctx.hop == 0) content().set(kOriginPosField, ctx.position);
  }

  void encode_extra(wire::Writer& w) const override {
    FieldTuple::encode_extra(w);
    w.f64(bearing_.x);
    w.f64(bearing_.y);
    w.f64(cos_half_angle_);
  }

  void decode_extra(wire::Reader& r) override {
    FieldTuple::decode_extra(r);
    bearing_.x = r.f64();
    bearing_.y = r.f64();
    cos_half_angle_ = r.f64();
    if (!(cos_half_angle_ >= -1.0 && cos_half_angle_ <= 1.0)) {
      throw wire::DecodeError("bad sector angle");
    }
  }

 private:
  Vec2 bearing_{1.0, 0.0};
  double cos_half_angle_ = -1.0;
};

}  // namespace tota::tuples
