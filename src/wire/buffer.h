// Byte-level wire encoding.
//
// Everything a TOTA node sends to a neighbour is serialized through a
// Writer into a flat byte vector and parsed back with a bounds-checked
// Reader.  The format is little-endian with LEB128-style varints for
// integers whose typical magnitude is small (lengths, hop counts).
//
// Decoding is total: malformed input yields DecodeError, never UB — a
// middleware must survive garbage from the network.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tota::wire {

using Bytes = std::vector<std::uint8_t>;

/// Encoded size of `v` as a LEB128 uvarint (1..10 bytes) — lets senders
/// that pack against a byte budget (net::Batcher vs the link MTU) price
/// a field without encoding it.
constexpr std::size_t uvarint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Thrown by Reader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what)
      : std::runtime_error("wire decode error: " + what) {}
};

/// Appends encoded values to a byte vector.
class Writer {
 public:
  Writer() = default;

  /// Pre-sizes the output for at least `n` more bytes, so a frame built
  /// field-by-field does not reallocate per field (the send hot path
  /// passes the previous frame size of the same tuple as the hint).
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Unsigned varint (LEB128).
  void uvarint(std::uint64_t v);
  /// Signed varint (zig-zag + LEB128).
  void svarint(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed string.
  void string(std::string_view s);
  /// Length-prefixed blob.
  void blob(std::span<const std::uint8_t> data);
  /// Raw bytes, no length prefix (caller manages framing).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const Bytes& bytes() const { return out_; }
  [[nodiscard]] Bytes take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

/// Bounds-checked sequential reader over a byte span.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Bytes& data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t uvarint();
  std::int64_t svarint();
  double f64();
  bool boolean();
  std::string string();
  /// Length-prefixed string as a view of the input, no copy; valid only
  /// while the reader's buffer lives (like span()).
  std::string_view string_view();
  Bytes blob();

  /// Raw view of the next `n` bytes, no copy; the span aliases the
  /// reader's input and is valid only while that buffer lives.  Used
  /// for length-prefixed sub-envelopes (net::Datagram BATCH chunks)
  /// whose bodies are parsed by their own Reader.
  std::span<const std::uint8_t> span(std::size_t n) {
    need(n);
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  /// Throws DecodeError unless all input was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tota::wire
