#include "tota/pattern.h"

#include "tota/tuple.h"

namespace tota {

namespace {
// A hostile pattern with thousands of clauses is garbage, not a query.
constexpr std::uint64_t kMaxFields = 256;

constexpr std::uint8_t kHasType = 1u << 0;
}  // namespace

Pattern Pattern::of_type(std::string tag) {
  Pattern p;
  p.type(std::move(tag));
  return p;
}

Pattern& Pattern::type(std::string tag) {
  type_ = std::move(tag);
  return *this;
}

Pattern& Pattern::eq(std::string_view field, wire::Value value) {
  return where(field, Pred::eq(std::move(value)));
}

Pattern& Pattern::exists(std::string_view field) {
  return where(field, Pred::exists());
}

Pattern& Pattern::where(std::string_view field, Pred pred) {
  fields_.push_back({wire::Atom(field), std::move(pred)});
  return *this;
}

bool Pattern::matches(const Tuple& tuple) const {
  return matches_record(tuple.type_tag(), tuple.content());
}

bool Pattern::matches_record(const std::string& tag,
                             const wire::Record& content) const {
  if (type_ && *type_ != tag) return false;
  return matches_fields(content);
}

bool Pattern::matches_fields(const wire::Record& content) const {
  for (const auto& c : fields_) {
    const wire::Value* value = content.find(c.name);
    if (value == nullptr) return false;
    if (!c.pred.eval(*value)) return false;
  }
  return true;
}

bool Pattern::equivalent(const Pattern& other) const {
  return type_ == other.type_ && fields_ == other.fields_;
}

void Pattern::encode(wire::Writer& w) const {
  w.u8(type_ ? kHasType : 0);
  if (type_) w.string(*type_);
  w.uvarint(fields_.size());
  for (const auto& c : fields_) {
    w.string(c.name.str());
    c.pred.encode(w);
  }
}

Pattern Pattern::decode(wire::Reader& r) {
  const auto flags = r.u8();
  if ((flags & ~kHasType) != 0) {
    throw wire::DecodeError("unknown pattern flags");
  }
  Pattern p;
  if ((flags & kHasType) != 0) p.type_ = r.string();
  const auto n = r.uvarint();
  if (n > kMaxFields) throw wire::DecodeError("pattern too wide");
  p.fields_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const wire::Atom name(r.string_view());
    p.fields_.push_back({name, Pred::decode(r)});
  }
  return p;
}

std::string Pattern::str() const {
  std::string out = type_ ? *type_ : "*";
  out += "{";
  bool first = true;
  for (const auto& c : fields_) {
    if (!first) out += ", ";
    first = false;
    out += c.name.str();
    out += c.pred.str();
  }
  out += "}";
  return out;
}

}  // namespace tota
