// The receive/decode path: frame envelope parsing, one tuple-body decode
// per delivered frame, and robustness against malformed frames.  The
// propagation pipeline itself lives in engine.cc.
#include "tota/engine.h"

namespace tota {

namespace {

/// Parses one tuple body (a TUPLE frame with the envelope stripped),
/// consuming it to the last byte.
std::unique_ptr<Tuple> parse_tuple_body(std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  auto tuple = Tuple::decode(r);
  r.expect_done();
  return tuple;
}

}  // namespace

void Engine::note_decode_failure() {
  ++decode_failures_;
  metrics_.decode_fail.inc();
}

void Engine::dispatch(NodeId from, const wire::Frame& frame,
                      std::unique_ptr<Tuple> tuple) {
  switch (frame.kind) {
    case wire::FrameKind::kTuple:
      receive_tuple(from, std::move(tuple));
      return;
    case wire::FrameKind::kRetract:
      // frame.removed_hop is carried for tracing only.
      handle_retract(from, frame.uid);
      return;
    case wire::FrameKind::kProbe:
      handle_probe(frame.uid);
      return;
  }
}

void Engine::receive_tuple(NodeId from, std::unique_ptr<Tuple> tuple) {
  // Overhearing the frame tells us what the sender now holds —
  // maintenance bookkeeping happens even for copies the propagation rule
  // goes on to reject.
  if (tuple->maintained()) {
    neighbor_values_.note(tuple->uid(), from, tuple->hop());
    // A neighbour's value can also *stretch* past ours and void our
    // justification; re-check eagerly.
    if (maintenance_.retract_on_link_down) recheck(tuple->uid());
  }
  tuple->set_hop(tuple->hop() + 1);
  process(std::move(tuple), from);
}

void Engine::on_datagram(NodeId from, std::span<const std::uint8_t> payload) {
  try {
    const wire::Frame frame = wire::Frame::decode(payload);
    std::unique_ptr<Tuple> tuple;
    if (frame.kind == wire::FrameKind::kTuple) {
      tuple = parse_tuple_body(frame.tuple_body);
    }
    dispatch(from, frame, std::move(tuple));
  } catch (const wire::DecodeError&) {
    note_decode_failure();
  } catch (const wire::UnknownTypeError&) {
    note_decode_failure();
  }
}

}  // namespace tota
