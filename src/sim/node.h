// Host interface: what a simulated node's software stack must implement.
//
// The network delivers three kinds of upcalls, mirroring what the TOTA
// prototype gets from its OS/network layer: received datagrams (multicast
// frames from one-hop neighbours), and neighbour appearance/disappearance
// from the low-level "system to continuously detect neighboring nodes"
// the paper describes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/ids.h"
#include "wire/buffer.h"

namespace tota::sim {

class Host {
 public:
  virtual ~Host() = default;

  /// A one-hop broadcast frame from `from` arrived.
  virtual void on_datagram(NodeId from,
                           std::span<const std::uint8_t> payload) = 0;

  /// Compatibility shim: the simulator only calls the span overload.
  /// Kept while the benchmark's sim::Host decorator (perfbench) still
  /// overrides it; remove once that decorator stops doing so.
  virtual void on_datagram(NodeId from,
                           std::shared_ptr<const wire::Bytes> payload) {
    if (payload != nullptr) on_datagram(from, std::span(*payload));
  }

  /// `neighbor` entered radio range (or joined the network).
  virtual void on_neighbor_up(NodeId neighbor) = 0;

  /// `neighbor` left radio range (moved away, left, or failed).
  virtual void on_neighbor_down(NodeId neighbor) = 0;
};

}  // namespace tota::sim
