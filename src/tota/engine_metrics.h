// The engine's observability handles, resolved once at construction so
// the pipeline never does a by-name metric lookup (naming scheme:
// docs/OBSERVABILITY.md).  Counters aggregate across every engine
// sharing the hub — i.e. across all nodes of a simulated world.
#pragma once

#include "obs/metrics.h"

namespace tota {

struct EngineMetrics {
  explicit EngineMetrics(obs::MetricsRegistry& registry);

  /// Local injections (pipeline entry with hop 0).
  obs::Counter& inject;
  /// Replicas installed into a local tuple space.
  obs::Counter& store;
  /// Re-broadcasts (floods, heals, re-propagations alike).
  obs::Counter& propagate;
  /// Copies decide_enter() rejected.
  obs::Counter& drop_enter;
  /// Copies dropped as duplicates / superseded losers.
  obs::Counter& drop_duplicate;
  /// Copies refused while their uid's hold-down was armed.
  obs::Counter& drop_holddown;
  /// Pass-through copies the uid filter had already seen.
  obs::Counter& drop_passthrough;
  /// Stored replicas retired because an update stopped matching locally.
  obs::Counter& retire;
  /// Frames that failed to decode (see Engine::decode_failures()).
  obs::Counter& decode_fail;

  // Self-maintenance events (engine_maintenance.cc).
  /// Stored replicas re-broadcast because a neighbour appeared.
  obs::Counter& maint_link_up_reprop;
  /// Replicas dropped by link loss.
  obs::Counter& maint_retract_started;
  /// Replicas dropped by a neighbour's RETRACT (or stretch).
  obs::Counter& maint_retract_cascaded;
  /// Re-announcements answering a RETRACT.
  obs::Counter& maint_heal_reprop;
  /// PROBEs sent when a hold-down expires.
  obs::Counter& maint_probe_tx;
  /// Re-announcements answering a PROBE.
  obs::Counter& maint_probe_answer;

  /// Milliseconds from a replica's retraction to the same tuple being
  /// reinstalled on that node — the per-replica repair latency.
  obs::Histogram& repair_ms;
};

}  // namespace tota
