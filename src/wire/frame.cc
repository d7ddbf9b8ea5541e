#include "wire/frame.h"

namespace tota::wire {

namespace {

// Worst-case envelope sizes, for Writer::reserve: kind byte plus two
// 64-bit varints (10 bytes each) plus a small svarint.
constexpr std::size_t kControlFrameReserve = 1 + 10 + 10 + 5;

void write_uid(Writer& w, const TupleUid& uid) {
  w.uvarint(uid.origin().value());
  w.uvarint(uid.sequence());
}

TupleUid read_uid(Reader& r) {
  const NodeId origin{r.uvarint()};
  const std::uint64_t seq = r.uvarint();
  return TupleUid{origin, seq};
}

}  // namespace

Frame Frame::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  Frame frame;
  frame.kind = static_cast<FrameKind>(r.u8());
  switch (frame.kind) {
    case FrameKind::kTuple:
      frame.tuple_body = payload.subspan(1);
      return frame;
    case FrameKind::kRetract:
      frame.uid = read_uid(r);
      frame.removed_hop = static_cast<int>(r.svarint());
      r.expect_done();
      return frame;
    case FrameKind::kProbe:
      frame.uid = read_uid(r);
      r.expect_done();
      return frame;
  }
  throw DecodeError("unknown frame kind");
}

Bytes Frame::tuple(const std::function<void(Writer&)>& encode_body,
                   std::size_t size_hint) {
  Writer w;
  w.reserve(1 + size_hint);
  w.u8(static_cast<std::uint8_t>(FrameKind::kTuple));
  encode_body(w);
  return w.take();
}

Bytes Frame::retract(const TupleUid& uid, int removed_hop) {
  Writer w;
  w.reserve(kControlFrameReserve);
  w.u8(static_cast<std::uint8_t>(FrameKind::kRetract));
  write_uid(w, uid);
  w.svarint(removed_hop);
  return w.take();
}

Bytes Frame::probe(const TupleUid& uid) {
  Writer w;
  w.reserve(kControlFrameReserve);
  w.u8(static_cast<std::uint8_t>(FrameKind::kProbe));
  write_uid(w, uid);
  return w.take();
}

}  // namespace tota::wire
