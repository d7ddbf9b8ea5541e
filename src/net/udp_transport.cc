#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>

namespace tota::net {

namespace {

/// Largest datagram we accept; a TOTA frame is far smaller, but the port
/// is open to the world.
constexpr std::size_t kMaxDatagram = 64 * 1024;

bool parse_addr(const std::string& text, in_addr* out) {
  return ::inet_pton(AF_INET, text.c_str(), out) == 1;
}

}  // namespace

UdpTransport::UdpTransport(UdpOptions options, obs::MetricsRegistry& metrics)
    : options_(std::move(options)),
      tx_(metrics.counter("net.udp.tx")),
      tx_bytes_(metrics.counter("net.udp.tx_bytes")),
      rx_(metrics.counter("net.udp.rx")),
      rx_bytes_(metrics.counter("net.udp.rx_bytes")),
      send_err_(metrics.counter("net.udp.send_err")),
      rx_err_(metrics.counter("net.udp.rx_err")),
      rx_trunc_(metrics.counter("net.udp.rx_trunc")),
      drain_yield_(metrics.counter("net.udp.drain_yield")) {}

UdpTransport::~UdpTransport() { close(); }

bool UdpTransport::fail(const std::string& what) {
  error_ = what + ": " + ::strerror(errno);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return false;
}

bool UdpTransport::open() {
  if (fd_ >= 0) return true;

  in_addr group{};
  if (!parse_addr(options_.group, &group)) {
    error_ = "bad group address: " + options_.group;
    return false;
  }
  // Resolve the destination once; send() reuses it for every datagram
  // instead of re-running inet_pton per call.
  dest_ = sockaddr_in{};
  dest_.sin_family = AF_INET;
  dest_.sin_port = htons(options_.port);
  dest_.sin_addr = group;

  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return fail("socket");

  // Every node on this host shares the port (shared-channel semantics);
  // both options are needed for broadcast/multicast fan-out to all of
  // them.
  const int one = 1;
  if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    return fail("SO_REUSEADDR");
  }
#ifdef SO_REUSEPORT
  if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    return fail("SO_REUSEPORT");
  }
#endif

  if (options_.rcvbuf > 0) {
    // Best effort: the kernel clamps to net.core.rmem_max.  Whatever it
    // grants beats the default under a propagation storm; failure here
    // is not worth refusing the socket over.
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &options_.rcvbuf,
                 sizeof(options_.rcvbuf));
  }

  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  bind_addr.sin_port = htons(options_.port);
  bind_addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&bind_addr),
             sizeof(bind_addr)) < 0) {
    return fail("bind");
  }

  if (options_.mode == UdpOptions::Mode::kBroadcast) {
    if (::setsockopt(fd_, SOL_SOCKET, SO_BROADCAST, &one, sizeof(one)) < 0) {
      return fail("SO_BROADCAST");
    }
  } else {
    in_addr ifaddr{};
    ifaddr.s_addr = htonl(INADDR_ANY);
    if (!options_.ifaddr.empty() && !parse_addr(options_.ifaddr, &ifaddr)) {
      error_ = "bad interface address: " + options_.ifaddr;
      ::close(fd_);
      fd_ = -1;
      return false;
    }

    ip_mreq mreq{};
    mreq.imr_multiaddr = group;
    mreq.imr_interface = ifaddr;
    if (::setsockopt(fd_, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                     sizeof(mreq)) < 0) {
      return fail("IP_ADD_MEMBERSHIP");
    }
    // We must hear our own transmissions' group: co-located processes
    // (and CI) rely on loopback delivery.
    const unsigned char loop = 1;
    if (::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_LOOP, &loop,
                     sizeof(loop)) < 0) {
      return fail("IP_MULTICAST_LOOP");
    }
    const unsigned char ttl =
        static_cast<unsigned char>(options_.ttl < 0 ? 0 : options_.ttl);
    if (::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof(ttl)) <
        0) {
      return fail("IP_MULTICAST_TTL");
    }
    if (!options_.ifaddr.empty() &&
        ::setsockopt(fd_, IPPROTO_IP, IP_MULTICAST_IF, &ifaddr,
                     sizeof(ifaddr)) < 0) {
      return fail("IP_MULTICAST_IF");
    }
  }

  error_.clear();
  return true;
}

void UdpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpTransport::send(std::span<const std::uint8_t> datagram) {
  if (fd_ < 0) {
    send_err_.inc();
    return false;
  }
  const ssize_t n =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<sockaddr*>(&dest_), sizeof(dest_));
  if (n != static_cast<ssize_t>(datagram.size())) {
    // EAGAIN (full send buffer) and friends: the datagram is dropped, as
    // on any lossy broadcast medium.  Counted, not thrown.
    error_ = std::string("sendto: ") + ::strerror(errno);
    send_err_.inc();
    return false;
  }
  tx_.inc();
  tx_bytes_.inc(static_cast<std::int64_t>(datagram.size()));
  return true;
}

std::size_t UdpTransport::drain(
    const std::function<void(std::span<const std::uint8_t>)>& sink) {
  if (fd_ < 0) return 0;
  std::array<std::uint8_t, kMaxDatagram> buffer;
  std::size_t delivered = 0;
  for (;;) {
    if (options_.drain_budget != 0 && delivered >= options_.drain_budget) {
      // Budget exhausted with the socket possibly still readable: yield
      // so the loop can serve its other tenants; level-triggered
      // readiness re-arms this drain on the next wakeup.
      drain_yield_.inc();
      break;
    }
    const ssize_t n = ::recv(fd_, buffer.data(), buffer.size(), MSG_TRUNC);
    if (n < 0) {
      if (errno == EINTR) continue;  // interrupted mid-drain: retry
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // A real receive error, not a cleanly drained queue: record it
        // instead of masking it as EAGAIN.  The socket stays open —
        // transient errors (e.g. ENOBUFS) heal; persistent ones keep
        // counting and stay visible in error().
        rx_err_.inc();
        error_ = std::string("recv: ") + ::strerror(errno);
      }
      break;
    }
    if (static_cast<std::size_t>(n) > buffer.size()) {
      rx_trunc_.inc();  // kernel truncated an oversized datagram
      continue;
    }
    rx_.inc();
    rx_bytes_.inc(n);
    ++delivered;
    sink(std::span<const std::uint8_t>(buffer.data(),
                                       static_cast<std::size_t>(n)));
  }
  return delivered;
}

}  // namespace tota::net
