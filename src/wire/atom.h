// Atom — a field name interned into one process-wide table, so a record
// lookup compares integers instead of strings.
//
// Ids are a process-local artefact and never leave the process: the wire
// format still carries every name as its string (Record::encode writes
// str()), equality follows the name (one id per name), hash() is the
// name's string hash, and nothing orders output by id.
//
// The table is shared by every thread (simulator shards decode
// concurrently).  Looking up a name already in it takes no lock and
// allocates nothing; only the first sight of a name locks and copies it.
// It holds at most kMaxAtoms names, a fixed bound rather than a knob:
// names arrive from the network, and interning one more throws
// DecodeError, so frames that invent field names count as decode
// failures instead of growing the table without limit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tota::wire {

class Atom {
 public:
  /// Most distinct names the process will ever intern.
  static constexpr std::uint32_t kMaxAtoms = 1u << 16;

  /// The atom of `name`, interned on first use.  Throws DecodeError when
  /// the name is new and the table already holds kMaxAtoms names.
  explicit Atom(std::string_view name);

  /// The atom of `name` if it is interned, without adding it.
  [[nodiscard]] static std::optional<Atom> find(std::string_view name);

  /// Names interned so far.
  [[nodiscard]] static std::size_t count();

  [[nodiscard]] std::string_view str() const;
  /// std::hash of the name, so hashes match those of the name's string.
  [[nodiscard]] std::size_t hash() const;

  friend bool operator==(Atom a, Atom b) { return a.id_ == b.id_; }

 private:
  explicit Atom(std::uint32_t id) : id_(id) {}

  std::uint32_t id_;
};

}  // namespace tota::wire
