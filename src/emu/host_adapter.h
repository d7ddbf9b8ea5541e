// HostAdapter — forwards the simulator's upcalls to a node's middleware.
//
// emu::ShardedWorld attaches one per node to sim::ShardedSim; the
// benchmark's traced world wraps it in a timing decorator.
#pragma once

#include "sim/node.h"
#include "tota/middleware.h"

namespace tota::emu {

class HostAdapter final : public sim::Host {
 public:
  explicit HostAdapter(Middleware& mw) : mw_(mw) {}

  void on_datagram(NodeId from,
                   std::span<const std::uint8_t> payload) override {
    mw_.on_datagram(from, payload);
  }
  void on_neighbor_up(NodeId neighbor) override {
    mw_.on_neighbor_up(neighbor);
  }
  void on_neighbor_down(NodeId neighbor) override {
    mw_.on_neighbor_down(neighbor);
  }

 private:
  Middleware& mw_;
};

}  // namespace tota::emu
