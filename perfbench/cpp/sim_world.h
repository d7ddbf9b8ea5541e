// The simulated world a sim workload drives, built one of two ways:
//
//   untraced: emu::ShardedWorld, exactly as applications build it;
//   traced:   the same stack ShardedWorld::seal builds — sim::ShardedSim +
//             emu::ShardPlatform + Middleware + emu::HostAdapter — with a
//             timing decorator around each ShardPlatform (tota::Platform)
//             and each HostAdapter (sim::Host), so every call that crosses
//             the simulator/middleware boundary becomes a span.
//
// The decorators forward every call unchanged (including the decode-once
// frame codec), so both builds evolve bit-for-bit identically per
// (seed, shard count); the determinism self-check asserts it.
#pragma once

#include <memory>
#include <vector>

#include "emu/host_adapter.h"
#include "emu/sharded_world.h"
#include "span_trace.h"

namespace perf {

/// tota::Platform decorator: spans around the radio and the event queue,
/// and around every TOTA timer when it fires.
class TracingPlatform final : public tota::Platform {
 public:
  explicit TracingPlatform(tota::Platform& inner) : inner_(inner) {}

  void broadcast(tota::wire::Bytes payload) override {
    trace::capture_frame(payload);
    Span s(SpanKind::kSimBroadcast);
    inner_.broadcast(std::move(payload));
  }
  void broadcast_reliable(tota::wire::Bytes payload) override {
    trace::capture_frame(payload);
    Span s(SpanKind::kSimBroadcast);
    inner_.broadcast_reliable(std::move(payload));
  }
  [[nodiscard]] tota::wire::FrameCodec* frame_codec() override {
    return inner_.frame_codec();
  }
  [[nodiscard]] tota::SimTime now() const override { return inner_.now(); }
  TimerId schedule(tota::SimTime delay, std::function<void()> action) override {
    Span s(SpanKind::kSimSchedule);
    return inner_.schedule(delay, [action = std::move(action)] {
      Span fired(SpanKind::kTimer);
      action();
    });
  }
  void cancel(TimerId id) override { inner_.cancel(id); }
  [[nodiscard]] tota::Vec2 position() const override {
    return inner_.position();
  }
  [[nodiscard]] tota::Rng& rng() override { return inner_.rng(); }

 private:
  tota::Platform& inner_;
};

/// sim::Host decorator: one span per upcall, frames classified by their
/// wire::FrameKind byte (TUPLE → engine.rx, RETRACT/PROBE → maint.ctrl_rx).
class TracingHost final : public tota::sim::Host {
 public:
  explicit TracingHost(tota::sim::Host& inner) : inner_(inner) {}

  void on_datagram(tota::NodeId from,
                   std::span<const std::uint8_t> payload) override {
    Span s(kind_of(payload));
    if (s.sampled()) s.set_uid(uid_of(payload));
    inner_.on_datagram(from, payload);
  }
  void on_datagram(
      tota::NodeId from,
      std::shared_ptr<const tota::wire::Bytes> payload) override {
    const std::span<const std::uint8_t> bytes =
        payload != nullptr ? std::span<const std::uint8_t>(*payload)
                           : std::span<const std::uint8_t>();
    Span s(kind_of(bytes));
    if (s.sampled()) s.set_uid(uid_of(bytes));
    inner_.on_datagram(from, std::move(payload));
  }
  void on_neighbor_up(tota::NodeId neighbor) override {
    Span s(SpanKind::kLink);
    inner_.on_neighbor_up(neighbor);
  }
  void on_neighbor_down(tota::NodeId neighbor) override {
    Span s(SpanKind::kLink);
    inner_.on_neighbor_down(neighbor);
  }

  static SpanKind kind_of(std::span<const std::uint8_t> payload);
  /// The tuple a frame is about (TUPLE header or control-frame uid);
  /// an invalid uid when the frame does not parse.
  static tota::TupleUid uid_of(std::span<const std::uint8_t> payload);

 private:
  tota::sim::Host& inner_;
};

/// The sim workloads' shard count: 1.  With two shards every epoch is two
/// barrier crossings between threads, and on a shared host the wall time
/// of a run then measures the scheduler more than the middleware (round
/// wall times spread over 80% of their median across seeds, CPU ~20%).
/// Runs are deterministic per (seed, shard count).
[[nodiscard]] std::uint32_t sim_shards();

struct SimWorldOptions {
  int side = 100;          // grid side: side × side nodes
  double spacing = 80.0;   // 80 m with a 100 m range gives degree 4
  std::uint32_t shards = 1;
  std::uint64_t seed = 1;
  bool traced = false;
};

/// A sealed grid world, traced or not.  Quiescent-point API only.
class SimWorld {
 public:
  explicit SimWorld(const SimWorldOptions& opts);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] tota::Middleware& mw(tota::NodeId id);
  [[nodiscard]] tota::sim::ShardedSim& net();
  [[nodiscard]] const std::vector<tota::NodeId>& nodes() const {
    return nodes_;
  }
  void run_for(tota::SimTime d) {
    Span s(SpanKind::kSimRun);
    net().run_for(d);
  }
  /// Every shard's metrics plus the scheduler's, merged.
  [[nodiscard]] tota::obs::MetricsRegistry metrics() const;

 private:
  struct Cell {
    std::unique_ptr<tota::emu::ShardPlatform> platform;
    std::unique_ptr<TracingPlatform> traced_platform;
    std::unique_ptr<tota::Middleware> middleware;
    std::unique_ptr<tota::emu::HostAdapter> adapter;
    std::unique_ptr<TracingHost> traced_host;
  };

  std::unique_ptr<tota::emu::ShardedWorld> world_;  // untraced build
  std::unique_ptr<tota::sim::ShardedSim> sim_;      // traced build
  std::vector<Cell> cells_;                         // traced; by NodeId
  std::vector<tota::NodeId> nodes_;
};

}  // namespace perf
