// Record — the content `C` of a TOTA tuple: an ordered list of named,
// typed fields.
//
// Field names make application code and pattern matching readable
// ("hopcount" rather than "field 2") while the wire format stays compact
// (names are short strings, encoded once per record).  In memory a name
// is an interned wire::Atom, so a lookup by Atom is an integer scan; the
// string_view overloads resolve the name first and never intern it.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wire/atom.h"
#include "wire/value.h"

namespace tota::wire {

/// Ordered list of (name, value) fields.
class Record {
 public:
  struct Field {
    Atom name;
    Value value;
    friend bool operator==(const Field&, const Field&) = default;
  };

  Record() = default;
  Record(std::initializer_list<Field> fields) : fields_(fields) {}

  /// Sets the named field, appending it if absent; returns *this for
  /// chaining.  The string form interns the name.
  Record& set(Atom name, Value value);
  Record& set(std::string_view name, Value value);

  [[nodiscard]] bool has(std::string_view name) const {
    return find(name) != nullptr;
  }
  /// Value of the named field; throws std::out_of_range if absent.
  [[nodiscard]] const Value& at(Atom name) const;
  [[nodiscard]] const Value& at(std::string_view name) const;
  /// The named field's value, or nullptr if absent.  Points into the
  /// record: valid until the record is next modified.
  [[nodiscard]] const Value* find(Atom name) const;
  [[nodiscard]] const Value* find(std::string_view name) const;

  /// Positional access.
  [[nodiscard]] std::size_t size() const { return fields_.size(); }
  [[nodiscard]] bool empty() const { return fields_.empty(); }
  [[nodiscard]] const Field& field(std::size_t i) const { return fields_[i]; }

  [[nodiscard]] auto begin() const { return fields_.begin(); }
  [[nodiscard]] auto end() const { return fields_.end(); }

  friend bool operator==(const Record&, const Record&) = default;

  void encode(Writer& w) const;
  static Record decode(Reader& r);

  /// "(name=value, …)" for logs.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t hash() const;

 private:
  std::vector<Field> fields_;
};

}  // namespace tota::wire
