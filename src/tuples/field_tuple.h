// FieldTuple — the workhorse propagation pattern of the paper: a tuple
// that spreads breadth-first from its source, hop by hop, maintaining a
// per-node distance ("a tuple incrementing one of its fields as it gets
// propagated identifies a sort of structure of space defining the network
// distances from the source").
//
// Content fields every FieldTuple maintains:
//   name     : string  — application-level label of the structure
//   source   : NodeId  — the injecting node (set automatically at hop 0)
//   hopcount : int     — BFS distance from the source at this node
//
// Subclasses add their own derived fields in update_fields() (e.g. the
// flocking tuple's V-shaped `val`).  Replica resolution is monotone:
// a copy that travelled fewer hops supersedes one that travelled more, so
// each node converges to its true network distance from the source.
//
// An optional scope bounds propagation to `scope` hops from the source
// (the "expanding ring" is cut there).
#pragma once

#include <string>

#include "tota/tuple.h"

namespace tota::tuples {

class FieldTuple : public Tuple {
 public:
  static constexpr int kUnbounded = -1;
  /// Largest representable scope; decode_extra rejects anything outside
  /// [kUnbounded, kMaxScope], and the setter enforces the same bounds so
  /// a locally-legal tuple can never encode a frame remote nodes throw
  /// away.
  static constexpr int kMaxScope = 1 << 24;

  FieldTuple() = default;
  explicit FieldTuple(std::string name, int scope = kUnbounded);

  // --- content accessors ---------------------------------------------------

  [[nodiscard]] std::string name() const {
    return content().at(kNameField).as_string();
  }
  [[nodiscard]] NodeId source() const {
    return content().at(kSourceField).as_node();
  }
  [[nodiscard]] int hopcount() const {
    return static_cast<int>(content().at(kHopcountField).as_int());
  }

  [[nodiscard]] int scope() const { return scope_; }
  /// Throws std::invalid_argument outside [kUnbounded, kMaxScope] — the
  /// exact range decode_extra accepts on the receiving side.
  void set_scope(int scope);

  // --- propagation rule ------------------------------------------------------

  bool decide_enter(const Context& ctx) override;
  void change_content(const Context& ctx) override;
  bool decide_propagate(const Context& ctx) override;
  [[nodiscard]] bool superseded_by(int hop) const override;

 protected:
  /// Subclass extension point: maintain derived content fields; runs after
  /// source/hopcount are updated for this node.
  virtual void update_fields(const Context& ctx);

  // The content fields above.  Like every field name the tuple classes
  // use, interned at start-up, before a frame can fill the name table.
  inline static const wire::Atom kNameField{"name"};
  inline static const wire::Atom kSourceField{"source"};
  inline static const wire::Atom kHopcountField{"hopcount"};
  inline static const wire::Atom kOriginPosField{"origin_pos"};

  void encode_extra(wire::Writer& w) const override;
  void decode_extra(wire::Reader& r) override;

 private:
  int scope_ = kUnbounded;
};

}  // namespace tota::tuples
