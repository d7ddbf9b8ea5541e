// AdvertTuple — paper §5.2, first solution for information gathering:
//
//   C = (description, location, distance)
//   P = (propagate to all peers hop by hop, increasing the distance field
//        by one at every hop)
//
// An information node (sensor) advertises what it offers; every device can
// read the advert locally and follow it backwards (descending `distance`)
// to physically reach the source "without having to rely on any a priori
// global information about where sensors are located".
#pragma once

#include "tuples/field_tuple.h"

namespace tota::tuples {

class AdvertTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.advert";

  AdvertTuple() = default;

  /// `description` is the advertised information ("temperature", "gas
  /// station", …); the source position is stamped automatically from the
  /// location sensor at injection.
  explicit AdvertTuple(std::string description, int scope = kUnbounded)
      : FieldTuple(std::move(description), scope) {}

  [[nodiscard]] std::string description() const { return name(); }
  [[nodiscard]] Vec2 location() const {
    return content().at(kLocationField).as_vec2();
  }
  [[nodiscard]] int distance() const {
    return static_cast<int>(content().at(kDistanceField).as_int());
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<AdvertTuple>(*this);
  }

 protected:
  void update_fields(const Context& ctx) override {
    if (ctx.hop == 0) content().set(kLocationField, ctx.position);
    content().set(kDistanceField, ctx.hop);  // the paper's field name
  }

 private:
  inline static const wire::Atom kLocationField{"location"};
  inline static const wire::Atom kDistanceField{"distance"};
};

}  // namespace tota::tuples
