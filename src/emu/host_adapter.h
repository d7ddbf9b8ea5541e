// HostAdapter — forwards the simulator's upcalls to a node's middleware.
//
// Shared by the two emulator worlds: emu::World (single-threaded
// sim::Network) and emu::ShardedWorld (sim::ShardedSim), which wire the
// same Middleware stack to different schedulers.
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
