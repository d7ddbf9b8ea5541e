#include "tota/tuple.h"

namespace tota {

bool Tuple::decide_enter(const Context&) { return true; }

void Tuple::change_content(const Context&) {}

bool Tuple::decide_store(const Context&) { return true; }

bool Tuple::decide_propagate(const Context&) { return true; }

bool Tuple::superseded_by(int) const { return false; }

void Tuple::apply_effects(const Context&) {}

bool Tuple::maintained() const { return true; }

void TupleHeader::write(wire::Writer& w) const {
  w.string(tag);
  w.uvarint(uid.origin().value());
  w.uvarint(uid.sequence());
  w.svarint(hop);
}

TupleHeader TupleHeader::read(wire::Reader& r) {
  TupleHeader header;
  header.tag = r.string_view();
  const NodeId origin{r.uvarint()};
  const std::uint64_t seq = r.uvarint();
  header.uid = TupleUid{origin, seq};
  const std::int64_t hop = r.svarint();
  if (hop < 0 || hop > (1 << 24)) throw wire::DecodeError("bad hop count");
  header.hop = static_cast<int>(hop);
  return header;
}

void Tuple::encode(wire::Writer& w) const {
  TupleHeader{type_tag(), uid_, hop_}.write(w);
  content_.encode(w);
  encode_extra(w);
}

std::unique_ptr<Tuple> Tuple::decode(wire::Reader& r) {
  const TupleHeader header = TupleHeader::read(r);
  return decode_body(header, r);
}

std::unique_ptr<Tuple> Tuple::decode_body(const TupleHeader& header,
                                          wire::Reader& r) {
  auto tuple = tuple_registry().create(header.tag);
  tuple->uid_ = header.uid;
  tuple->hop_ = header.hop;
  tuple->content_ = wire::Record::decode(r);
  tuple->decode_extra(r);
  return tuple;
}

std::unique_ptr<Tuple> Tuple::clone() const {
  // Fallback for subclasses without a copy-construction override:
  // round-tripping through the wire format guarantees the copy is exactly
  // what a remote node would see and keeps subclasses free of clone code.
  wire::Writer w;
  encode(w);
  const auto bytes = w.take();
  wire::Reader r(bytes);
  auto copy = decode(r);
  r.expect_done();
  return copy;
}

std::string Tuple::str() const {
  return type_tag() + "[" + to_string(uid_) + " hop=" + std::to_string(hop_) +
         "] " + content_.str();
}

void Tuple::encode_extra(wire::Writer&) const {}

void Tuple::decode_extra(wire::Reader&) {}

wire::TypeRegistry<Tuple>& tuple_registry() {
  static wire::TypeRegistry<Tuple> registry;
  return registry;
}

}  // namespace tota
