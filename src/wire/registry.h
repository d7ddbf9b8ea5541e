// Polymorphic type registry.
//
// TOTA propagates *objects* (tuple subclasses with behaviour), so a
// receiving node must reconstruct the right subclass from the wire.  Each
// registered type gets a stable string tag; the registry maps tags to
// factories.  This is the simulator-friendly analogue of the Java
// prototype's class loading.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tota::wire {

/// Thrown when decoding meets a type tag with no registered factory.
class UnknownTypeError : public std::runtime_error {
 public:
  explicit UnknownTypeError(std::string_view tag)
      : std::runtime_error("unknown wire type tag: " + std::string(tag)) {}
};

/// Registry of default-constructible subclasses of Base, keyed by a stable
/// string tag.  Typically used as a process-wide singleton per base class.
template <typename Base>
class TypeRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Base>()>;

  /// Registers a factory; replaces any previous registration for the tag
  /// (convenient for tests that re-register mock types).
  void register_type(const std::string& tag, Factory factory) {
    factories_[tag] = std::move(factory);
  }

  template <typename Derived>
  void register_default(const std::string& tag) {
    register_type(tag, [] { return std::make_unique<Derived>(); });
  }

  [[nodiscard]] bool knows(const std::string& tag) const {
    return factories_.count(tag) > 0;
  }

  /// Creates a fresh instance for the tag; throws UnknownTypeError.
  [[nodiscard]] std::unique_ptr<Base> create(std::string_view tag) const {
    const auto it = factories_.find(tag);
    if (it == factories_.end()) throw UnknownTypeError(tag);
    return it->second();
  }

  [[nodiscard]] std::vector<std::string> tags() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [tag, _] : factories_) out.push_back(tag);
    return out;
  }

 private:
  /// Transparent comparator: lookups by string_view build no string.
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace tota::wire
