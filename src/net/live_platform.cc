#include "net/live_platform.h"

#include <stdexcept>
#include <utility>

#include "tota/middleware.h"

namespace tota::net {

LivePlatform::LivePlatform(EventLoop& loop, LiveOptions options,
                           obs::Hub* hub)
    : loop_(loop),
      options_(options),
      hub_(hub != nullptr ? *hub : obs::default_hub()),
      rng_(options.seed != 0 ? options.seed
                             : 0x70A7A000u ^ options.id.value()),
      transport_(options.transport, hub_.metrics),
      session_(
          options.id, *this, options,
          [this](wire::Bytes datagram) { transport_.send(datagram); },
          hub_.metrics) {
  if (!options_.id.valid()) {
    throw std::invalid_argument("LivePlatform requires a nonzero node id");
  }
}

LivePlatform::~LivePlatform() { stop(); }

void LivePlatform::attach(Middleware& middleware) {
  session_.attach(&middleware);
}

bool LivePlatform::start() {
  if (started_) return true;
  if (!transport_.open()) return false;
  if (options_.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(options_.fault, *this,
                                             hub_.metrics);
  }
  loop_.add_fd(transport_.fd(), [this] {
    transport_.drain([this](std::span<const std::uint8_t> bytes) {
      if (fault_ != nullptr) {
        // Adversity between the socket and the decoder.  Endpoints: the
        // sender is unknown before decoding, the receiver is this node —
        // a partition whose group contains us severs our whole rx path.
        fault_->process(
            bytes,
            [this](const wire::Bytes& damaged) { session_.on_raw(damaged); },
            NodeId{}, options_.id);
      } else {
        session_.on_raw(bytes);
      }
    });
  });
  session_.start();
  started_ = true;
  return true;
}

void LivePlatform::stop() {
  if (!started_) return;
  started_ = false;
  session_.stop();
  loop_.remove_fd(transport_.fd());
  transport_.close();
  fault_.reset();  // held datagrams die with the node — in-flight loss
}

void LivePlatform::broadcast(wire::Bytes payload) {
  session_.broadcast(std::move(payload));
}

void LivePlatform::broadcast_reliable(wire::Bytes payload) {
  session_.broadcast_reliable(std::move(payload));
}

}  // namespace tota::net
