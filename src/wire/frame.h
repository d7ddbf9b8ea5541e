// The radio frame envelope — the single definition of what a TOTA node
// puts on the air (grammar: docs/WIRE.md).
//
// One envelope per frame, three kinds:
//
//   0x01 TUPLE   <tuple encoding>            — a propagating tuple copy
//   0x02 RETRACT <origin, seq, removed_hop>  — replica removal announcement
//   0x03 PROBE   <origin, seq>               — request re-announcement
//
// Frame owns all envelope encoding and decoding; nothing outside this
// file writes or interprets a FrameKind byte.  The tuple *body* stays
// opaque here (the wire layer cannot know tota::Tuple): a decoded TUPLE
// frame exposes the body as a span into the source buffer, and each
// receiving engine parses its own span exactly once.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common/ids.h"
#include "wire/buffer.h"

namespace tota::wire {

enum class FrameKind : std::uint8_t { kTuple = 1, kRetract = 2, kProbe = 3 };

/// A decoded frame envelope.  For kTuple, `tuple_body` views into the
/// buffer decode() was called on and is valid only while that buffer
/// lives; kRetract/kProbe are fully decoded here.
struct Frame {
  FrameKind kind = FrameKind::kTuple;
  /// kRetract / kProbe: the tuple the control message is about.
  TupleUid uid;
  /// kRetract: the hop value the announcing node removed.
  int removed_hop = 0;
  /// kTuple: the undecoded tuple encoding (envelope stripped).
  std::span<const std::uint8_t> tuple_body;

  /// Parses an envelope.  Control frames are validated to the last byte;
  /// a TUPLE frame's body is left for the tuple decoder.  Throws
  /// DecodeError on truncated input or an unknown kind byte.
  static Frame decode(std::span<const std::uint8_t> payload);

  /// Builds a TUPLE frame around a caller-encoded body: writes the
  /// envelope, then hands the (pre-sized by `size_hint`) writer to
  /// `encode_body`.
  static Bytes tuple(const std::function<void(Writer&)>& encode_body,
                     std::size_t size_hint = 128);
  static Bytes retract(const TupleUid& uid, int removed_hop);
  static Bytes probe(const TupleUid& uid);
};

}  // namespace tota::wire
