// UdpTransport — the broadcast medium of a live TOTA node.
//
// One non-blocking IPv4 UDP socket in one of two modes:
//
//   kMulticast  — join a multicast group; send() transmits to the group.
//                 This is the real-network mode (the paper's prototype
//                 used 802.11 multicast the same way).
//   kBroadcast  — SO_BROADCAST datagrams to a subnet broadcast address.
//                 With 127.255.255.255 this works on the loopback
//                 interface, which is how CI runs N nodes on one host.
//
// Either way the socket binds the shared port with SO_REUSEADDR +
// SO_REUSEPORT, so several processes on one machine all receive every
// datagram — a faithful stand-in for a shared radio channel (including
// hearing one's own transmissions; the LivePlatform filters those by
// sender id).
//
// Failure handling is graceful, not fatal: open() returns false with a
// diagnostic in error() (sandboxes without socket access exist — the
// smoke test skips there), and send() errors are counted as
// net.udp.send_err rather than thrown, because a full send buffer on a
// lossy medium is weather, not a bug.
//
// Metrics (docs/NET.md): net.udp.tx, net.udp.tx_bytes, net.udp.rx,
// net.udp.rx_bytes, net.udp.send_err, net.udp.rx_err, net.udp.rx_trunc,
// net.udp.drain_yield.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "wire/buffer.h"

namespace tota::net {

struct UdpOptions {
  enum class Mode { kMulticast, kBroadcast };

  Mode mode = Mode::kMulticast;
  /// Multicast group (kMulticast) or broadcast destination (kBroadcast).
  std::string group = "239.255.77.7";
  std::uint16_t port = 47000;
  /// Interface address for multicast membership/egress; empty = any
  /// ("0.0.0.0").  Use "127.0.0.1" to keep multicast on loopback.
  std::string ifaddr;
  /// Multicast TTL; 1 = link-local, matching the paper's one-hop medium.
  int ttl = 1;
  /// Most datagrams one drain() call delivers before yielding back to
  /// the event loop; 0 = unlimited.  On a multi-tenant loop one flooded
  /// socket must not starve every other engine's socket and all due
  /// timers: a drain that hits the budget stops (counted as
  /// net.udp.drain_yield) and is re-armed by the loop's level-triggered
  /// readiness — the remaining datagrams surface on the next wakeup,
  /// after everyone else had a turn.
  std::size_t drain_budget = 1024;
  /// Requested SO_RCVBUF in bytes; 0 keeps the kernel default.  A flood
  /// on the shared channel (e.g. N nodes re-propagating an injection at
  /// once) can overflow the ~208 KiB default and silently drop frames;
  /// mass harnesses ask for several MiB.  Best-effort — the kernel
  /// clamps to net.core.rmem_max, and a clamped request is not an error.
  int rcvbuf = 0;
};

class UdpTransport {
 public:
  /// Registers the net.udp.* instruments in `metrics` (must outlive the
  /// transport).  The socket is not opened yet.
  UdpTransport(UdpOptions options, obs::MetricsRegistry& metrics);
  ~UdpTransport();

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Opens + configures the socket.  False on failure (see error());
  /// never throws for environmental problems.
  [[nodiscard]] bool open();
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  /// The socket fd for EventLoop::add_fd; -1 when closed.
  [[nodiscard]] int fd() const { return fd_; }
  /// Human-readable reason open()/send() last failed.
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Transmits one datagram to the group/broadcast address.  Returns
  /// false (and counts net.udp.send_err) on failure.
  bool send(std::span<const std::uint8_t> datagram);

  /// Reads the queued datagrams off the socket — at most
  /// options().drain_budget of them — invoking `sink` for each; returns
  /// how many were delivered.  Call from the loop's readability
  /// callback.  A cleanly drained queue (EAGAIN/EWOULDBLOCK) ends the
  /// loop silently; a real receive error also ends it but is counted
  /// (net.udp.rx_err) and recorded in error(); an exhausted budget ends
  /// it too (net.udp.drain_yield) and relies on the loop's
  /// level-triggered readiness to resume on the next wakeup.
  std::size_t drain(
      const std::function<void(std::span<const std::uint8_t>)>& sink);

  [[nodiscard]] const UdpOptions& options() const { return options_; }

 private:
  bool fail(const std::string& what);

  UdpOptions options_;
  int fd_ = -1;
  /// Destination resolved once at open(); send() reuses it instead of
  /// re-running inet_pton per datagram.
  sockaddr_in dest_{};
  std::string error_;
  obs::Counter& tx_;
  obs::Counter& tx_bytes_;
  obs::Counter& rx_;
  obs::Counter& rx_bytes_;
  obs::Counter& send_err_;
  obs::Counter& rx_err_;
  obs::Counter& rx_trunc_;
  obs::Counter& drain_yield_;
};

}  // namespace tota::net
