// The distributed tuple T = (C, P).
//
// C — the content — is a wire::Record of named typed fields.
// P — the propagation rule — is *behaviour*: subclasses override four hook
// methods that the engine consults as the tuple spreads hop-by-hop through
// the network (the paper's "breadth first, expanding ring" skeleton):
//
//   decide_enter      should this copy be processed at this node at all?
//   change_content    mutate the content for this node (e.g. hopcount+1)
//   decide_store      keep a replica in this node's local tuple space?
//   decide_propagate  re-broadcast from this node to its neighbours?
//
// plus `superseded_by`, which the *stored* replica answers when another
// copy of its distributed tuple arrives (monotone update vs duplicate).
//
// Tuples cross the (simulated) network only as bytes: encode()/decode()
// serialize the base state, and subclasses with extra propagation state
// override encode_extra()/decode_extra().  Every encoding opens with a
// TupleHeader — type tag, uid, hop — so a receiver can resolve a
// duplicate before it reads (or allocates for) the rest of the body.
// Every concrete tuple class is registered in the TupleRegistry under a
// stable string tag so receivers can reconstruct the right subclass.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "tota/context.h"
#include "wire/buffer.h"
#include "wire/record.h"
#include "wire/registry.h"

namespace tota {

/// The leading fields of every encoded tuple: which class, which
/// distributed tuple, how far this copy travelled.  The one definition
/// of that prefix — Tuple::encode writes it, Tuple::decode reads it.
struct TupleHeader {
  /// Aliases the reader's input: valid only while that buffer lives.
  std::string_view tag;
  TupleUid uid;
  int hop = 0;

  void write(wire::Writer& w) const;
  /// Reads and validates the prefix (hop in [0, 2^24]) without
  /// allocating.  Throws wire::DecodeError on malformed input.
  static TupleHeader read(wire::Reader& r);
};

class Tuple {
 public:
  Tuple() = default;
  virtual ~Tuple() = default;

  Tuple(const Tuple&) = default;
  Tuple& operator=(const Tuple&) = default;

  // --- identity ------------------------------------------------------------

  /// Stable wire tag identifying the concrete class (see TupleRegistry).
  [[nodiscard]] virtual std::string type_tag() const = 0;

  /// Middleware-level id: (injecting node, per-node sequence).  Invisible
  /// to applications in the paper; exposed read-only here for tests and
  /// tooling.
  [[nodiscard]] const TupleUid& uid() const { return uid_; }
  void set_uid(TupleUid uid) { uid_ = uid; }

  /// Hops this copy travelled from its source (0 at the source).
  [[nodiscard]] int hop() const { return hop_; }
  void set_hop(int hop) { hop_ = hop; }

  // --- content C ------------------------------------------------------------

  /// The mutable form is for tuples not yet stored: a stored replica is
  /// reached only through a TupleHandle and never changes.
  [[nodiscard]] const wire::Record& content() const { return content_; }
  [[nodiscard]] wire::Record& content() { return content_; }

  // --- propagation rule P (hooks) -------------------------------------------

  /// Should this copy be considered at this node at all?  Returning false
  /// drops it without storing or forwarding (spatial scoping lives here).
  /// Default: yes.
  virtual bool decide_enter(const Context& ctx);

  /// Mutates the content for this node; the classic gradient increments a
  /// distance field here.  Runs before storage.  Default: no change.
  virtual void change_content(const Context& ctx);

  /// Keep a replica in this node's tuple space?  Default: yes.  Tuples
  /// that only pass through (pure messages) return false.
  virtual bool decide_store(const Context& ctx);

  /// Re-broadcast from this node?  Default: yes (network-wide flood).
  /// Scope-limited tuples return false past their range.
  virtual bool decide_propagate(const Context& ctx);

  /// Asked of the *stored* replica when another copy of this distributed
  /// tuple arrives having travelled `hop` hops.  Return true when that
  /// copy should replace this replica (and be re-propagated); false to
  /// drop it as a duplicate.  The engine asks before it decodes the
  /// copy's body, so the answer may depend on the hop alone.  Default:
  /// false — first copy wins, which terminates plain floods.
  [[nodiscard]] virtual bool superseded_by(int hop) const;

  /// Side effects on the node being crossed (delete/modify other tuples
  /// via ctx.ops).  Runs once per node, after change_content and duplicate
  /// resolution.  Default: none.  This is the paper's "propagating by
  /// deleting/modifying specific tuples in the propagation nodes".
  virtual void apply_effects(const Context& ctx);

  /// Whether stored replicas participate in self-maintenance, i.e. are
  /// retracted when they lose justification — no current neighbour holds
  /// the tuple at a smaller hop value (see engine.h).  True for
  /// structural tuples (distance fields must track the topology); false
  /// for delivered data (a message kept at its receiver outlives the
  /// path it travelled).  Default: true.
  [[nodiscard]] virtual bool maintained() const;

  // --- wire -------------------------------------------------------------------

  /// Serializes tag + uid + hop + content + subclass extras.
  void encode(wire::Writer& w) const;

  /// Reconstructs a tuple from bytes using the registry: the header, then
  /// the body.  Throws wire::DecodeError / wire::UnknownTypeError on
  /// malformed input.
  static std::unique_ptr<Tuple> decode(wire::Reader& r);

  /// The second half of decode: builds the tuple `header` names and reads
  /// the rest of its encoding (content, extras) from `r`,
  /// which must sit just past the header.
  static std::unique_ptr<Tuple> decode_body(const TupleHeader& header,
                                            wire::Reader& r);

  /// Deep copy preserving the dynamic type.  Concrete subclasses
  /// override with a copy-construction one-liner; stored replicas are
  /// shared, not copied, so the engine clones only to re-evaluate a
  /// source replica (copy-on-write).  The base fallback round-trips
  /// through the wire format: always correct
  /// (every propagation-relevant field is serialized, as decode must
  /// rebuild the full state) but it pays a full encode+decode.
  [[nodiscard]] virtual std::unique_ptr<Tuple> clone() const;

  /// "<tag>[uid hop] (content)" for logs.
  [[nodiscard]] std::string str() const;

 protected:
  /// Subclasses with propagation state beyond the content record hook in
  /// here; base implementations write/read nothing.
  virtual void encode_extra(wire::Writer& w) const;
  virtual void decode_extra(wire::Reader& r);

 private:
  TupleUid uid_;
  int hop_ = 0;
  wire::Record content_;
};

/// A shared immutable tuple, as the tuple space stores and reads return.
using TupleHandle = std::shared_ptr<const Tuple>;

/// Process-wide registry mapping type tags to factories.
wire::TypeRegistry<Tuple>& tuple_registry();

/// Registers `T` (default-constructible Tuple subclass) under `tag`.
/// Typically invoked once per concrete class via a namespace-scope helper.
template <typename T>
void register_tuple_type(const std::string& tag) {
  tuple_registry().register_default<T>(tag);
}

}  // namespace tota
