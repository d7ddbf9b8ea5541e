#include "wire/buffer.h"

#include <bit>

namespace tota::wire {

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  u8(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  // Zig-zag: maps small negatives to small unsigned values.
  uvarint((static_cast<std::uint64_t>(v) << 1) ^
          static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::string(std::string_view s) {
  uvarint(s.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}

void Writer::blob(std::span<const std::uint8_t> data) {
  uvarint(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

void Writer::raw(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DecodeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  const auto lo = u8();
  return static_cast<std::uint16_t>(lo | (u8() << 8));
}

std::uint32_t Reader::u32() {
  const std::uint32_t lo = u16();
  return lo | (static_cast<std::uint32_t>(u16()) << 16);
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  return lo | (static_cast<std::uint64_t>(u32()) << 32);
}

std::uint64_t Reader::uvarint() {
  std::uint64_t result = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t byte = u8();
    if (shift == 63 && (byte & ~std::uint8_t{1}) != 0) {
      throw DecodeError("varint overflow");
    }
    result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return result;
    shift += 7;
    if (shift > 63) throw DecodeError("varint too long");
  }
}

std::int64_t Reader::svarint() {
  const std::uint64_t z = uvarint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

bool Reader::boolean() {
  const auto v = u8();
  if (v > 1) throw DecodeError("invalid boolean");
  return v == 1;
}

std::string Reader::string() { return std::string(string_view()); }

std::string_view Reader::string_view() {
  const auto len = uvarint();
  need(len);
  const std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_),
                           len);
  pos_ += len;
  return s;
}

Bytes Reader::blob() {
  const auto len = uvarint();
  need(len);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return b;
}

void Reader::expect_done() const {
  if (!done()) throw DecodeError("trailing bytes after message");
}

}  // namespace tota::wire
