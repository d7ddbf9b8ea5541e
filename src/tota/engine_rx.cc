// The receive path: frame envelope parsing, header-first tuple receive
// (duplicates resolved before the body is read), and robustness against
// malformed frames.  The propagation pipeline itself lives in engine.cc.
#include "tota/engine.h"

namespace tota {

namespace {

/// Reads the rest of a tuple body after its header, consuming it to the
/// last byte.
std::unique_ptr<Tuple> read_rest(const TupleHeader& header, wire::Reader& r) {
  auto tuple = Tuple::decode_body(header, r);
  r.expect_done();
  return tuple;
}

}  // namespace

void Engine::note_decode_failure() {
  ++decode_failures_;
  metrics_.decode_fail.inc();
}

void Engine::dispatch(NodeId from, const wire::Frame& frame) {
  switch (frame.kind) {
    case wire::FrameKind::kTuple:
      receive_tuple(from, frame.tuple_body);
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

void Engine::receive_tuple(NodeId from, std::span<const std::uint8_t> body) {
  wire::Reader r(body);
  const TupleHeader header = TupleHeader::read(r);
  const TupleSpace::Entry* stored = space_.find(header.uid);
  std::unique_ptr<Tuple> tuple;
  if (stored == nullptr) {
    tuple = read_rest(header, r);  // nothing here for it to duplicate
  } else if (stored->type_tag != header.tag) {
    // Uids are unique per injection: the same uid under another class
    // can only come from a damaged frame.
    throw wire::DecodeError("uid stored under another type tag");
  }

  // Overhearing the frame tells us what the sender now holds —
  // maintenance bookkeeping happens even for copies the propagation rule
  // goes on to reject.  A stored replica answers for its class, so a
  // duplicate's body is never read.
  if ((stored != nullptr ? *stored->tuple : *tuple).maintained()) {
    neighbor_values_.note(header.uid, from, header.hop);
    // A neighbour's value can also *stretch* past ours and void our
    // justification; re-check eagerly.
    if (stored != nullptr && maintenance_.retract_on_link_down &&
        recheck(*stored)) {
      stored = nullptr;
    }
  }

  const int hop = header.hop + 1;
  if (tuple == nullptr) {
    if (is_duplicate(stored, hop)) return;
    tuple = read_rest(header, r);
  }
  tuple->set_hop(hop);
  process(std::move(tuple), from, stored);
}

void Engine::on_datagram(NodeId from, std::span<const std::uint8_t> payload) {
  try {
    dispatch(from, wire::Frame::decode(payload));
  } catch (const wire::DecodeError&) {
    note_decode_failure();
  } catch (const wire::UnknownTypeError&) {
    note_decode_failure();
  }
}

}  // namespace tota
