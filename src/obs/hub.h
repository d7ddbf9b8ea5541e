// The observability hub: one MetricsRegistry + one Tracer, shared by
// every component observing the same slice of a system.
//
// In a simulated world (emu::ShardedWorld) each shard has one hub: the
// simulator's radio counters and every Engine on that shard record into
// it, so counters aggregate across nodes and the trace interleaves the
// shard's pipeline.  ShardedSim::export_metrics/export_trace merge the
// shard hubs in shard order (deterministic), and a world's hubs are its
// own, so two identical runs stay bit-identical — the determinism tests
// rely on this.  An Engine/Middleware given nullptr records into the
// process-wide default_hub(); benches use that hub as the sink their
// finished worlds are merged into (bench/exp_common.h absorb()), so one
// BENCH_*.json tells the whole binary's story.
#pragma once

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace tota::obs {

struct Hub {
  MetricsRegistry metrics;
  Tracer tracer;
};

/// The process-wide hub used when none is supplied.  Never destroyed
/// before its users (function-local static).
[[nodiscard]] Hub& default_hub();

}  // namespace tota::obs
