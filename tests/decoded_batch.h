// Test helper: a whole BATCH datagram decoded into a vector, so a test
// can index its chunks.  The library's receive path never builds one —
// it walks the chunks in place with net::BatchReader.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/datagram.h"

namespace tota::testing {

struct DecodedBatch {
  NodeId sender;
  /// Chunks of known kinds, in wire order.
  std::vector<net::Chunk> chunks;
  /// Unknown-kind chunks passed over.
  std::size_t skipped = 0;
};

/// Throws wire::DecodeError on anything net::BatchReader rejects.
inline DecodedBatch decode_batch(std::span<const std::uint8_t> bytes) {
  net::BatchReader r(bytes);
  DecodedBatch d;
  d.sender = r.sender();
  net::Chunk c;
  while (r.next(c)) d.chunks.push_back(c);
  d.skipped = r.skipped();
  return d;
}

}  // namespace tota::testing
