// MessageTuple — the paper's §5.1 message:
//
//   C = (message, sender, receiver, message)
//   P = (if a structure tuple having my same receiver can be found in the
//        local node, follow downhill its hopcount, otherwise propagate to
//        all the nodes)
//
// "Downhill" over a broadcast medium: each relay stamps the copy with the
// structure value at its own node (`best`); a node receiving the copy
// enters only if its own structure value is strictly smaller — so the
// copy flows down the gradient to the structure's source.  Where no
// structure exists, the rule degenerates to flooding, exactly as the
// paper prescribes.
//
// A message descends *any* distance field whose source is the receiver
// (fields expose `source` and `hopcount`); an explicit structure name can
// narrow the choice.  The message is stored only at the receiver; en
// route it is pass-through (kTupleArrived still fires on relays, letting
// middleboxes observe traffic, but nothing persists).
#pragma once

#include <optional>
#include <string>

#include "tota/tuple.h"

namespace tota::tuples {

class MessageTuple : public Tuple {
 public:
  static constexpr const char* kTag = "tota.message";

  MessageTuple() = default;

  /// A message to `receiver`.  `structure_name` optionally pins which
  /// distance field to descend (empty = any field sourced at `receiver`).
  /// With `strict` set, the message travels only where that structure
  /// exists and descends — no flooding fallback; it dies at structure
  /// gaps instead.  Use strict mode for replies that must follow a trail
  /// (e.g. the content-store answers) without ever flooding.
  MessageTuple(NodeId receiver, std::string payload,
               std::string structure_name = {}, bool strict = false);

  [[nodiscard]] NodeId sender() const {
    return content().at(kSenderField).as_node();
  }
  [[nodiscard]] NodeId receiver() const {
    return content().at(kReceiverField).as_node();
  }
  [[nodiscard]] std::string payload() const {
    return content().at(kPayloadField).as_string();
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<MessageTuple>(*this);
  }

  bool decide_enter(const Context& ctx) override;
  void change_content(const Context& ctx) override;
  bool decide_store(const Context& ctx) override;
  bool decide_propagate(const Context& ctx) override;

  /// A delivered message is data, not structure: it survives the loss of
  /// the path it arrived on.
  [[nodiscard]] bool maintained() const override { return false; }

  /// Structure value at the last relay; unset means the message has been
  /// flooding so far.  Exposed for tests.
  [[nodiscard]] std::optional<int> best() const {
    return best_ < 0 ? std::nullopt : std::optional<int>(best_);
  }

 protected:
  /// The distance field this message descends, evaluated on `ctx.space`:
  /// smallest hopcount among matching structure replicas.  Subclasses
  /// (AnswerTuple) override the match.
  [[nodiscard]] virtual std::optional<int> structure_value(
      const Context& ctx) const;

  void encode_extra(wire::Writer& w) const override;
  void decode_extra(wire::Reader& r) override;

  [[nodiscard]] const std::string& structure_name() const {
    return structure_name_;
  }

  inline static const wire::Atom kSenderField{"sender"};
  inline static const wire::Atom kReceiverField{"receiver"};
  inline static const wire::Atom kPayloadField{"payload"};
  inline static const wire::Atom kWhatField{"what"};

 private:
  std::string structure_name_;
  int best_ = -1;
  bool strict_ = false;
};

/// AnswerTuple — §5.2's reply: a message that descends QueryTuple fields
/// back to the enquirer, carrying the query correlation id.
class AnswerTuple final : public MessageTuple {
 public:
  static constexpr const char* kTag = "tota.answer";

  AnswerTuple() = default;

  /// Answers `query_what` for enquirer `home` with `payload`.
  AnswerTuple(NodeId home, std::string query_what, std::string payload);

  [[nodiscard]] std::string query_what() const {
    return content().at(kWhatField).as_string();
  }

  [[nodiscard]] std::string type_tag() const override { return kTag; }
  [[nodiscard]] std::unique_ptr<Tuple> clone() const override {
    return std::make_unique<AnswerTuple>(*this);
  }

 protected:
  std::optional<int> structure_value(const Context& ctx) const override;
};

}  // namespace tota::tuples
