#include "span_trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "alloc_count.h"

namespace perf {

namespace {

constexpr std::size_t kSampleCap = 512;
constexpr std::size_t kFrameCap = 4096;
constexpr std::uint64_t kFrameStride = 16;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Frame {
  SpanKind kind;
  std::int64_t start;
  std::int64_t child_ns;
  std::uint64_t start_allocs;
  std::uint64_t child_allocs;
  std::uint64_t id;
  std::uint64_t parent;
  tota::TupleUid uid;
  std::int64_t slot;  // reservoir slot, -1 when not sampled
};

struct Record {
  SpanKind kind;
  std::uint32_t thread;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t start;
  std::int64_t end;
  tota::TupleUid uid;
};

struct ThreadTrace {
  std::uint32_t index = 0;
  bool driver = false;
  std::vector<Frame> stack;
  SpanStats stats{};
  std::int64_t busy_ns = 0;
  std::vector<Record> samples;
  std::uint64_t seen = 0;
  std::uint64_t rng = 0;
  std::uint64_t next_id = 1;
  std::vector<tota::wire::Bytes> frames;
  std::uint64_t frames_seen = 0;

  std::uint64_t next_random() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
};

std::atomic<bool> g_enabled{false};
/// Id of the driver's open sim.run span: the cause of worker-thread spans.
std::atomic<std::uint64_t> g_run_span{0};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // guarded

thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& local() {
  if (t_trace == nullptr) {
    auto fresh = std::make_unique<ThreadTrace>();
    fresh->stack.reserve(64);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    fresh->index = static_cast<std::uint32_t>(g_registry.size());
    fresh->rng = 0x9E3779B97F4A7C15ull ^ (fresh->index + 1);
    t_trace = fresh.get();
    g_registry.push_back(std::move(fresh));
  }
  return *t_trace;
}

void add(SpanStats& into, const SpanStats& from) {
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    into[i].count += from[i].count;
    into[i].total_ns += from[i].total_ns;
    into[i].self_ns += from[i].self_ns;
    into[i].self_allocs += from[i].self_allocs;
  }
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSimRun: return "sim.run";
    case SpanKind::kSimBroadcast: return "sim.broadcast";
    case SpanKind::kSimSchedule: return "sim.schedule";
    case SpanKind::kTimer: return "tota.timer";
    case SpanKind::kEngineRx: return "engine.rx";
    case SpanKind::kCtrlRx: return "maint.ctrl_rx";
    case SpanKind::kLink: return "maint.link";
    case SpanKind::kInject: return "engine.inject";
    case SpanKind::kReadOne: return "space.read_one";
    case SpanKind::kPredRead: return "space.pred_read";
    case SpanKind::kAggPublish: return "agg.publish";
    case SpanKind::kEmuSpawn: return "emu.spawn";
    case SpanKind::kEmuSeal: return "emu.seal";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace trace {

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void mark_driver() { local().driver = true; }

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& t : g_registry) {
    t->stats = SpanStats{};
    t->busy_ns = 0;
    t->samples.clear();
    t->seen = 0;
    t->frames.clear();
    t->frames_seen = 0;
  }
}

TraceSnapshot snapshot() {
  TraceSnapshot snap;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_registry) {
    if (t->driver) {
      add(snap.driver, t->stats);
    } else if (t->busy_ns > 0) {
      add(snap.workers, t->stats);
      snap.worker_busy_ns.push_back(t->busy_ns);
    }
  }
  return snap;
}

void capture_frame(std::span<const std::uint8_t> frame) {
  ThreadTrace& t = local();
  if (t.frames.size() >= kFrameCap) return;
  if (t.frames_seen++ % kFrameStride != 0) return;
  t.frames.emplace_back(frame.begin(), frame.end());
}

std::vector<tota::wire::Bytes> captured_frames() {
  std::vector<tota::wire::Bytes> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_registry) {
    out.insert(out.end(), t->frames.begin(), t->frames.end());
  }
  return out;
}

void write(const std::string& path, const TraceSnapshot& snap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"aggregates\": {\n");
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    SpanStat s = snap.driver[i];
    s.count += snap.workers[i].count;
    s.total_ns += snap.workers[i].total_ns;
    s.self_ns += snap.workers[i].self_ns;
    s.self_allocs += snap.workers[i].self_allocs;
    std::fprintf(f,
                 "    \"%s\": {\"count\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld, \"self_allocs\": %llu}%s\n",
                 span_name(static_cast<SpanKind>(i)),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.total_ns),
                 static_cast<long long>(s.self_ns),
                 static_cast<unsigned long long>(s.self_allocs),
                 i + 1 < kSpanKinds ? "," : "");
  }
  std::fprintf(f, "  },\n  \"spans\": [\n");
  bool first = true;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_registry) {
    for (const Record& r : t->samples) {
      std::fprintf(f,
                   "%s    {\"name\": \"%s\", \"thread\": %u, \"id\": %llu, "
                   "\"parent\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"uid\": \"%llu/%llu\"}",
                   first ? "" : ",\n", span_name(r.kind), r.thread,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<long long>(r.start),
                   static_cast<long long>(r.end),
                   static_cast<unsigned long long>(r.uid.origin().value()),
                   static_cast<unsigned long long>(r.uid.sequence()));
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

}  // namespace trace

Span::Span(SpanKind kind) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadTrace& t = local();
  open_ = true;
  Frame fr{};
  fr.kind = kind;
  fr.id = (static_cast<std::uint64_t>(t.index) + 1) << 40 | t.next_id++;
  fr.parent = t.stack.empty()
                  ? (t.driver ? 0 : g_run_span.load(std::memory_order_relaxed))
                  : t.stack.back().id;
  fr.slot = -1;
  ++t.seen;
  if (t.samples.size() < kSampleCap) {
    fr.slot = static_cast<std::int64_t>(t.samples.size());
    t.samples.push_back(Record{});
  } else {
    const std::uint64_t j = t.next_random() % t.seen;
    if (j < kSampleCap) fr.slot = static_cast<std::int64_t>(j);
  }
  sampled_ = fr.slot >= 0;
  if (kind == SpanKind::kSimRun && t.driver) {
    g_run_span.store(fr.id, std::memory_order_relaxed);
  }
  fr.start_allocs = thread_allocs();
  fr.start = now_ns();
  t.stack.push_back(fr);
}

void Span::set_uid(const tota::TupleUid& uid) {
  if (open_) t_trace->stack.back().uid = uid;
}

Span::~Span() {
  if (!open_) return;
  const std::int64_t end = now_ns();
  const std::uint64_t allocs = thread_allocs();
  ThreadTrace& t = *t_trace;
  const Frame fr = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = end - fr.start;
  const std::uint64_t span_allocs = allocs - fr.start_allocs;
  SpanStat& s = t.stats[static_cast<std::size_t>(fr.kind)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - fr.child_ns;
  s.self_allocs += span_allocs - fr.child_allocs;
  if (t.stack.empty()) {
    t.busy_ns += dur;
  } else {
    t.stack.back().child_ns += dur;
    t.stack.back().child_allocs += span_allocs;
  }
  if (fr.kind == SpanKind::kSimRun && t.driver) {
    g_run_span.store(0, std::memory_order_relaxed);
  }
  if (fr.slot >= 0) {
    t.samples[static_cast<std::size_t>(fr.slot)] =
        Record{fr.kind, t.index, fr.id, fr.parent, fr.start, end, fr.uid};
  }
}

}  // namespace perf
