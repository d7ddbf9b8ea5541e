// Spans for the traced run: one span per call that crosses a layer
// boundary, recorded by the benchmark's own decorators (layers.h) and
// around its own calls into the public API.
//
// Every span carries its name, start, end, the span that caused it and
// the tuple uid as request id.  Spans live in per-thread memory: each
// thread aggregates count, duration, self time (duration minus child
// spans on the same thread) and self allocations per span name, and keeps
// a bounded reservoir sample of full span records, written out at exit.
// A span opened on a simulator worker thread with nothing open on that
// thread is caused by the driver's open sim.run span.
//
// When tracing is disabled a Span is one branch on a global flag.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "wire/buffer.h"

namespace perf {

enum class SpanKind : std::uint8_t {
  kSimRun,        // ShardedSim::run_until / MassLiveWorld::run_until
  kSimBroadcast,  // Platform::broadcast → the simulator's radio
  kSimSchedule,   // Platform::schedule → a shard's event queue
  kTimer,         // a TOTA timer firing (maintenance, aggregator flush)
  kEngineRx,      // a TUPLE frame handed to Middleware::on_datagram
  kCtrlRx,        // a RETRACT/PROBE frame handed to Middleware::on_datagram
  kLink,          // Middleware::on_neighbor_up / on_neighbor_down
  kInject,        // Middleware::inject from the driver
  kReadOne,       // Middleware::read_one
  kPredRead,      // Middleware::read with a predicate pattern
  kAggPublish,    // SensorFusion::publish_reading
  kEmuSpawn,      // populating the world
  kEmuSeal,       // partitioning it and building every node's stack
  kCount
};

[[nodiscard]] const char* span_name(SpanKind kind);

constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

struct SpanStat {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};

using SpanStats = std::array<SpanStat, kSpanKinds>;

/// Per-name aggregates, split between the driver thread and all other
/// (simulator worker) threads, plus each worker's busy time.
struct TraceSnapshot {
  SpanStats driver{};
  SpanStats workers{};
  std::vector<std::int64_t> worker_busy_ns;  // one entry per worker thread
};

namespace trace {

void enable(bool on);
/// Marks the calling thread as the driver.
void mark_driver();
/// Zeroes every thread's aggregates, samples and captured frames.
/// Quiescent points only (no worker thread inside a span).
void reset();
[[nodiscard]] TraceSnapshot snapshot();
/// Keeps every 16th broadcast frame of the calling thread, up to a cap.
void capture_frame(std::span<const std::uint8_t> frame);
[[nodiscard]] std::vector<tota::wire::Bytes> captured_frames();
/// Writes the sampled span records and the per-name aggregates as JSON.
void write(const std::string& path, const TraceSnapshot& snap);

}  // namespace trace

class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Tags the span with the tuple it works on (its request id).
  void set_uid(const tota::TupleUid& uid);
  /// True when this span will be kept in the sample (worth a uid parse).
  [[nodiscard]] bool sampled() const { return sampled_; }

 private:
  bool open_ = false;
  bool sampled_ = false;
};

}  // namespace perf
