#include "wire/atom.h"

#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>

#include "wire/buffer.h"

namespace tota::wire {

namespace {

/// Open addressing at load factor <= 1/2, so a probe always ends.
constexpr std::size_t kSlots = 2 * static_cast<std::size_t>(Atom::kMaxAtoms);
constexpr std::size_t kMask = kSlots - 1;

struct Name {
  const char* data;
  std::size_t size;
  std::size_t hash;
};

// Constant-initialized, so atoms work during static initialization too.
// A slot packs the name hash's upper half (to skip most string compares)
// over id + 1; 0 is empty.  A slot is written once, after its Name, and
// read with acquire, so whoever sees an id also sees its Name.
constinit std::atomic<std::uint64_t> g_slots[kSlots] = {};
constinit Name g_names[Atom::kMaxAtoms] = {};
constinit std::atomic<std::uint32_t> g_count{0};
constinit std::mutex g_insert;

std::uint64_t slot_tag(std::size_t hash) {
  return static_cast<std::uint64_t>(hash) >> 32;
}

/// The id of `name`, or kMaxAtoms when it is not interned.
std::uint32_t probe(std::string_view name, std::size_t hash) {
  const std::uint64_t tag = slot_tag(hash);
  for (std::size_t i = hash & kMask;; i = (i + 1) & kMask) {
    const std::uint64_t slot = g_slots[i].load(std::memory_order_acquire);
    if (slot == 0) return Atom::kMaxAtoms;
    if ((slot >> 32) != tag) continue;
    const auto id = static_cast<std::uint32_t>(slot) - 1;
    const Name& n = g_names[id];
    if (n.size == name.size() && std::memcmp(n.data, name.data(), n.size) == 0) {
      return id;
    }
  }
}

std::size_t hash_of(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

Atom::Atom(std::string_view name) {
  const std::size_t hash = hash_of(name);
  id_ = probe(name, hash);
  if (id_ != kMaxAtoms) return;

  const std::lock_guard<std::mutex> lock(g_insert);
  id_ = probe(name, hash);  // another thread may have just added it
  if (id_ != kMaxAtoms) return;
  id_ = g_count.load(std::memory_order_relaxed);
  if (id_ == kMaxAtoms) throw DecodeError("too many distinct field names");
  // Names live as long as the process; the table is never pruned.
  char* data = new char[name.size() + 1];
  std::memcpy(data, name.data(), name.size());
  data[name.size()] = '\0';
  g_names[id_] = Name{data, name.size(), hash};
  g_count.store(id_ + 1, std::memory_order_release);
  std::size_t i = hash & kMask;
  while (g_slots[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & kMask;
  g_slots[i].store((slot_tag(hash) << 32) | (id_ + 1),
                   std::memory_order_release);
}

std::optional<Atom> Atom::find(std::string_view name) {
  const std::uint32_t id = probe(name, hash_of(name));
  if (id == kMaxAtoms) return std::nullopt;
  return Atom(id);
}

std::size_t Atom::count() { return g_count.load(std::memory_order_acquire); }

std::string_view Atom::str() const {
  return {g_names[id_].data, g_names[id_].size};
}

std::size_t Atom::hash() const { return g_names[id_].hash; }

}  // namespace tota::wire
