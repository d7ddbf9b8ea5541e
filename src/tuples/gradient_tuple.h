// GradientTuple — the paper's §5.1 "structure" tuple:
//
//   C = (structure, nodename, hopcount)
//   P = (propagate to all the nodes, increasing hopcount by one at every
//        hop)
//
// Injecting one overlays the network with the hop-distance field of the
// injecting node; MessageTuple copies then descend this field to reach it.
// Also doubles as the generic "information field": applications may add
// arbitrary payload fields to the content before injecting.
#pragma once

#include "tuples/field_tuple.h"

namespace tota::tuples {

class GradientTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.gradient";

  GradientTuple() = default;
  explicit GradientTuple(std::string name, int scope = kUnbounded)
      : FieldTuple(std::move(name), scope) {}

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<GradientTuple>(*this);
  }
};

/// FloodTuple — plain network-wide flooding of an application payload;
/// the degenerate FieldTuple whose only job is to reach (and stay on)
/// every node.  Kept as its own type so applications can subscribe to
/// floods without pattern-matching gradients.
class FloodTuple final : public FieldTuple {
 public:
  static constexpr const char* kTag = "tota.flood";

  FloodTuple() = default;
  FloodTuple(std::string name, wire::Value payload)
      : FieldTuple(std::move(name), kUnbounded) {
    content().set(kPayloadField, std::move(payload));
  }

  [[nodiscard]] wire::Value payload() const {
    return content().at(kPayloadField);
  }
  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<FloodTuple>(*this);
  }

 private:
  inline static const wire::Atom kPayloadField{"payload"};
};

}  // namespace tota::tuples
