// FlockTuple — the motion-coordination field of paper §5.3:
//
//   C = (FLOCK, nodename, val)
//   P = (val is initialized at X, propagate to all the nodes decreasing
//        by one in the first X hops, then increasing val by one for all
//        the further hops)
//
// val(hop) = |X - hop|: a V-shaped field whose minimum sits at distance X
// from the source.  Agents descending their peers' val gradients settle
// at X hops from each other — the bird-flock spacing rule.
#pragma once

#include "tuples/field_tuple.h"

namespace tota::tuples {

class FlockTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.flock";

  FlockTuple() = default;

  /// `target_distance` is X, the preferred inter-agent hop distance.
  explicit FlockTuple(int target_distance, int scope = kUnbounded)
      : FieldTuple("FLOCK", scope), target_distance_(target_distance) {}

  [[nodiscard]] int val() const {
    return static_cast<int>(content().at(kValField).as_int());
  }
  [[nodiscard]] int target_distance() const { return target_distance_; }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<FlockTuple>(*this);
  }

 protected:
  void update_fields(const Context& ctx) override {
    const int x = target_distance_;
    content().set(kValField, ctx.hop <= x ? x - ctx.hop : ctx.hop - x);
  }

  void encode_extra(wire::Writer& w) const override {
    FieldTuple::encode_extra(w);
    w.svarint(target_distance_);
  }

  void decode_extra(wire::Reader& r) override {
    FieldTuple::decode_extra(r);
    const auto x = r.svarint();
    if (x < 0 || x > (1 << 20)) throw wire::DecodeError("bad flock distance");
    target_distance_ = static_cast<int>(x);
  }

 private:
  inline static const wire::Atom kValField{"val"};

  int target_distance_ = 1;
};

}  // namespace tota::tuples
