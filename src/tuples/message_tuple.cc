#include "tuples/message_tuple.h"

#include "tota/pattern.h"
#include "tota/tuple_space.h"
#include "tuples/query_tuple.h"

namespace tota::tuples {

namespace {

const wire::Atom kHopcountField{"hopcount"};

/// Smallest hopcount among the local replicas `pattern` matches.
std::optional<int> lowest_hopcount(const Context& ctx, const Pattern& pattern) {
  std::optional<int> best;
  ctx.space.for_matching(pattern, [&](const TupleSpace::Entry& entry) {
    const int h =
        static_cast<int>(entry.tuple->content().at(kHopcountField).as_int());
    if (!best || h < *best) best = h;
    return true;
  });
  return best;
}

}  // namespace

MessageTuple::MessageTuple(NodeId receiver, std::string payload,
                           std::string structure_name, bool strict)
    : structure_name_(std::move(structure_name)), strict_(strict) {
  content()
      .set(kReceiverField, receiver)
      .set(kPayloadField, std::move(payload));
}

std::optional<int> MessageTuple::structure_value(const Context& ctx) const {
  Pattern pattern;
  pattern.eq("source", receiver()).exists("hopcount");
  if (!structure_name_.empty()) pattern.eq("name", structure_name_);
  return lowest_hopcount(ctx, pattern);
}

bool MessageTuple::decide_enter(const Context& ctx) {
  if (ctx.hop == 0) return true;           // injection
  if (ctx.self == receiver()) return true; // destination reached
  const auto here = structure_value(ctx);
  if (strict_) {
    // Trail-following mode: downhill on the structure or nowhere.
    return here && (best_ < 0 || *here < best_);
  }
  if (best_ < 0) return true;  // sender region had no structure: flooding
  if (!here) return true;      // structure ends here: fall back to flooding
  return *here < best_;        // strictly downhill only
}

void MessageTuple::change_content(const Context& ctx) {
  if (ctx.hop == 0) content().set(kSenderField, ctx.self);
  const auto here = structure_value(ctx);
  if (here) best_ = *here;
}

bool MessageTuple::decide_store(const Context& ctx) {
  // Only the receiver keeps the message; everywhere else it passes through.
  return ctx.self == receiver();
}

bool MessageTuple::decide_propagate(const Context& ctx) {
  return ctx.self != receiver();
}

void MessageTuple::encode_extra(wire::Writer& w) const {
  w.string(structure_name_);
  w.svarint(best_);
  w.boolean(strict_);
}

void MessageTuple::decode_extra(wire::Reader& r) {
  structure_name_ = r.string();
  const auto best = r.svarint();
  if (best < -1 || best > (1 << 24)) throw wire::DecodeError("bad best");
  best_ = static_cast<int>(best);
  strict_ = r.boolean();
}

AnswerTuple::AnswerTuple(NodeId home, std::string query_what,
                         std::string payload)
    : MessageTuple(home, std::move(payload)) {
  content().set(kWhatField, std::move(query_what));
}

std::optional<int> AnswerTuple::structure_value(const Context& ctx) const {
  // Descend specifically the enquirer's query field.
  Pattern pattern = Pattern::of_type(QueryTuple::kTag);
  pattern.eq("source", receiver()).exists("hopcount");
  return lowest_hopcount(ctx, pattern);
}

}  // namespace tota::tuples
