// NavTuple + DataTuple — the building blocks of content-based routing in
// the TOTA style (paper §5.1: the structure/message mechanism "allows
// TOTA to realize systems providing content-based routing … such as CAN
// and Pastry").
//
// A NavTuple navigates greedily through a coordinate space toward a
// target point: each copy carries the metric distance of its last relay
// (`best`), and a node lets the copy enter only when it sits strictly
// closer to the target.  Along the way it leaves a replica trail whose
// (source, hopcount) fields form a structure that a strict MessageTuple
// can descend back to the requester.  The node where greedy progress
// stops is the key's *home* — the content-addressable rendezvous.
//
// DataTuple is a non-propagating local record the home node keeps for a
// stored key.
#pragma once

#include <string>

#include "tota/tuple.h"

namespace tota::tuples {

class NavTuple : public Tuple {
 public:
  static constexpr const char* kTag = "tota.nav";

  NavTuple() = default;

  /// Navigates toward `target`; `purpose` distinguishes application uses
  /// ("put"/"get"), `key` is the content key.
  NavTuple(std::string key, Vec2 target, std::string purpose);

  [[nodiscard]] std::string key() const {
    return content().at("key").as_string();
  }
  [[nodiscard]] Vec2 target() const {
    return content().at(kTargetField).as_vec2();
  }
  [[nodiscard]] std::string purpose() const {
    return content().at("purpose").as_string();
  }
  /// The requesting node (stamped at injection).
  [[nodiscard]] NodeId requester() const {
    return content().at(kSourceField).as_node();
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<NavTuple>(*this);
  }

  bool decide_enter(const Context& ctx) override;
  void change_content(const Context& ctx) override;
  /// The trail replica: stored on every node the copy crosses so replies
  /// can descend (source, hopcount); pure data, exempt from structural
  /// maintenance.
  bool decide_store(const Context&) override { return true; }
  bool decide_propagate(const Context& ctx) override;
  [[nodiscard]] bool superseded_by(int hop) const override;
  [[nodiscard]] bool maintained() const override { return false; }

 protected:
  void encode_extra(wire::Writer& w) const override;
  void decode_extra(wire::Reader& r) override;

 private:
  inline static const wire::Atom kTargetField{"target"};
  inline static const wire::Atom kSourceField{"source"};
  inline static const wire::Atom kHopcountField{"hopcount"};

  double best_ = -1.0;  // metric distance at the last relay; <0 at start
};

/// A locally stored key/value record; never propagates.
class DataTuple final : public Tuple {
 public:
  static constexpr const char* kTag = "tota.data";

  DataTuple() = default;
  DataTuple(std::string key, std::string value) {
    content().set("key", std::move(key)).set("value", std::move(value));
  }

  [[nodiscard]] std::string key() const {
    return content().at("key").as_string();
  }
  [[nodiscard]] std::string value() const {
    return content().at("value").as_string();
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<DataTuple>(*this);
  }
  bool decide_propagate(const Context&) override { return false; }
  [[nodiscard]] bool maintained() const override { return false; }
};

}  // namespace tota::tuples
