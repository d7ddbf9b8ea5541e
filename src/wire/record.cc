#include "wire/record.h"

#include <algorithm>
#include <stdexcept>

namespace tota::wire {

Record& Record::set(Atom name, Value value) {
  for (auto& f : fields_) {
    if (f.name == name) {
      f.value = std::move(value);
      return *this;
    }
  }
  fields_.push_back({name, std::move(value)});
  return *this;
}

Record& Record::set(std::string_view name, Value value) {
  return set(Atom(name), std::move(value));
}

const Value& Record::at(Atom name) const {
  if (const Value* v = find(name)) return *v;
  throw std::out_of_range("record has no field '" + std::string(name.str()) +
                          "'");
}

const Value& Record::at(std::string_view name) const {
  if (const Value* v = find(name)) return *v;
  throw std::out_of_range("record has no field '" + std::string(name) + "'");
}

const Value* Record::find(Atom name) const {
  for (const auto& f : fields_) {
    if (f.name == name) return &f.value;
  }
  return nullptr;
}

const Value* Record::find(std::string_view name) const {
  // A name nobody interned is in no record.
  const std::optional<Atom> atom = Atom::find(name);
  return atom ? find(*atom) : nullptr;
}

void Record::encode(Writer& w) const {
  w.uvarint(fields_.size());
  for (const auto& f : fields_) {
    w.string(f.name.str());
    f.value.encode(w);
  }
}

Record Record::decode(Reader& r) {
  const auto n = r.uvarint();
  // A record is bounded by its message; refuse absurd counts early rather
  // than allocating unboundedly from hostile length prefixes.
  if (n > 4096) throw DecodeError("record field count too large");
  Record rec;
  // Every field takes at least two bytes (name length, value tag), so
  // this never reserves more fields than the rest of the frame can hold.
  rec.fields_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(n, r.remaining() / 2)));
  for (std::uint64_t i = 0; i < n; ++i) {
    const Atom name(r.string_view());
    rec.fields_.push_back({name, Value::decode(r)});
  }
  return rec;
}

std::string Record::str() const {
  std::string out = "(";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name.str();
    out += "=" + fields_[i].value.str();
  }
  out += ")";
  return out;
}

std::size_t Record::hash() const {
  std::size_t h = fields_.size();
  for (const auto& f : fields_) {
    h = h * 1000003 + f.name.hash();
    h = h * 1000003 + f.value.hash();
  }
  return h;
}

}  // namespace tota::wire
