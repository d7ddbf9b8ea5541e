// Platform: what the TOTA middleware needs from the device it runs on.
//
// The middleware itself is transport-agnostic — the paper's prototype ran
// on 802.11b multicast sockets; this repository runs it on a simulated
// radio.  A Platform provides one-hop broadcast, timers, a clock, a
// location sensor, and per-node randomness.  Porting TOTA to real
// hardware means implementing this interface (see emu/sharded_world.h
// for the simulator binding, net/live_platform.h for real sockets).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/clock.h"
#include "common/geometry.h"
#include "common/ids.h"
#include "common/rng.h"
#include "wire/buffer.h"

namespace tota {

namespace wire {
class FrameCodec;
}  // namespace wire

class Platform {
 public:
  /// Handle to a scheduled action, usable with cancel().  kInvalidTimer
  /// is never returned by schedule(), so callers can use it as "no timer
  /// pending".
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  virtual ~Platform() = default;

  /// Sends `payload` to every current one-hop neighbour (broadcast
  /// medium; one transmission, many receivers).
  virtual void broadcast(wire::Bytes payload) = 0;

  /// Like broadcast(), but the platform may upgrade delivery to
  /// at-least-once for the neighbours present at call time (the engine
  /// uses this for RETRACT/PROBE control frames, whose loss is not
  /// self-healing the way tuple floods are).  The default forwards to
  /// broadcast() — best-effort platforms and the lossless simulator
  /// need nothing extra; net::NetSession overrides it with its reliable
  /// channel (net/reliable.h) when that channel is enabled.
  virtual void broadcast_reliable(wire::Bytes payload) {
    broadcast(std::move(payload));
  }

  /// Compatibility shim: always nullptr, and nothing in the middleware
  /// calls it.  Kept while the benchmark's Platform decorator (perfbench)
  /// still overrides it; remove once that decorator stops doing so.
  [[nodiscard]] virtual wire::FrameCodec* frame_codec() { return nullptr; }

  /// Current local time.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Runs `action` after `delay` (never synchronously, even for a zero
  /// delay).  The returned handle cancels the action while it is still
  /// pending — components with recurring timers (discovery beacons,
  /// hold-down expiries) cancel them on shutdown instead of firing into
  /// a destroyed owner.
  virtual TimerId schedule(SimTime delay, std::function<void()> action) = 0;

  /// Cancels a pending action; no-op when it already fired or was
  /// cancelled.
  virtual void cancel(TimerId id) = 0;

  /// Location sensor reading (GPS / Wi-Fi triangulation stand-in).
  [[nodiscard]] virtual Vec2 position() const = 0;

  /// Node-local deterministic randomness.
  [[nodiscard]] virtual Rng& rng() = 0;
};

}  // namespace tota
