// Per-layer metrics of the traced run, and the counter plumbing the
// workloads share.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "span_trace.h"
#include "wire/buffer.h"

namespace perf {

using Counts = std::map<std::string, std::int64_t>;

[[nodiscard]] Counts counts_of(const tota::obs::MetricsRegistry& registry);
/// into[name] += after[name] - before[name], for every counter.
void add_delta(Counts& into, const Counts& after, const Counts& before);
[[nodiscard]] std::int64_t get(const Counts& c, const std::string& name);
/// The counters the determinism self-check compares: radio.*, engine.*,
/// maint.*, bus.cq.* and agg.*.
[[nodiscard]] Counts deterministic_counts(const Counts& c);

/// Declares every per-layer metric, with its unit, at 0.  A workload that
/// does not exercise a layer leaves that layer's metrics at 0.
void init_layer_metrics(Result& r);

void accumulate(TraceSnapshot& into, const TraceSnapshot& add);

/// What a traced sim run measured, summed over its rounds.
struct SimTrace {
  TraceSnapshot timed;  // spans inside the timed phases
  TraceSnapshot setup;  // spans inside the set-ups
  Counts counts;        // counter deltas over the timed phases
  double wall_s = 0.0;  // timed-phase wall time
  int rounds = 0;
  int setups = 0;
  std::uint32_t shards = 1;
  /// Replicas per node at the end of the last round.
  double resident_per_node = 0.0;
  /// A sample of the broadcast frames of the last timed phase.
  std::vector<tota::wire::Bytes> frames;
};

/// Fills the sim, emu, engine, maint, space, bus, agg, wire and
/// steady-store per-layer metrics from `t`, and prints (stderr) how the
/// timed phase's wall time splits into layer self times plus an
/// unattributed remainder.
void report_sim_layers(const std::string& workload, const SimTrace& t,
                       Result& r);

struct SteadyProbe {
  double rx64_ns = 0.0;   // Engine::on_datagram per TUPLE frame, 64 resident
  double rx1k_ns = 0.0;   // same, 1k resident
  double put_ns = 0.0;    // TupleSpace::put at 1k resident
};

/// Replays the TUPLE frames among `frames` into a standalone Engine over a
/// bench-owned TupleSpace held at a steady size (steady_probe.cc).
[[nodiscard]] SteadyProbe run_steady_probe(
    const std::vector<tota::wire::Bytes>& frames);

}  // namespace perf
