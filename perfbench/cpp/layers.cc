#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "tota/tuple.h"
#include "wire/frame.h"

namespace perf {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in output order.  Counts are per round.
constexpr LayerMetric kLayerMetrics[] = {
    // sim
    {"sim.self_s", "s"},
    {"sim.broadcast_ns", "ns"},
    {"sim.broadcast_allocs", "count"},
    {"sim.schedule_ns", "ns"},
    {"radio.tx", "count"},
    {"radio.rx", "count"},
    // emu
    {"emu.spawn_s", "s"},
    {"emu.seal_s", "s"},
    // tota engine
    {"engine.self_s", "s"},
    {"engine.rx_ns", "ns"},
    {"engine.rx_allocs", "count"},
    {"engine.inject_ns", "ns"},
    {"engine.useful_ratio", "ratio"},
    {"engine.store", "count"},
    {"engine.propagate", "count"},
    {"engine.drop.duplicate", "count"},
    {"engine.drop.enter", "count"},
    {"engine.rx_steady64_ns", "ns"},
    {"engine.rx_steady1k_ns", "ns"},
    {"engine.rx_insitu_per_steady1k", "ratio"},
    {"tota.timer_s", "s"},
    // tota maintenance
    {"maint.self_s", "s"},
    {"maint.link_ns", "ns"},
    {"maint.ctrl_rx_ns", "ns"},
    {"maint.tx_per_flap", "count"},
    {"maint.retract_started", "count"},
    {"maint.retract_cascaded", "count"},
    {"maint.heal_reprop", "count"},
    {"maint.probe_tx", "count"},
    {"engine.drop.holddown", "count"},
    // wire
    {"wire.frame_decode_ns", "ns"},
    {"wire.tuple_decode_ns", "ns"},
    {"wire.tuple_encode_ns", "ns"},
    {"wire.decode_hit_rate", "ratio"},
    {"wire.bytes_per_frame", "B"},
    // tota space / query
    {"space.self_s", "s"},
    {"space.read_one_ns", "ns"},
    {"space.read_allocs", "count"},
    {"space.pred_read_ns", "ns"},
    {"space.put_ns", "ns"},
    {"space.candidate_ratio", "ratio"},
    {"space.residual_per_query", "count"},
    {"space.resident_per_node", "count"},
    // tota events
    {"bus.fire_ratio", "ratio"},
    {"bus.cq.delta_ratio", "ratio"},
    {"bus.publish", "count"},
    // tuples aggregator
    {"agg.self_s", "s"},
    {"agg.publish_ns", "ns"},
    {"agg.coalesce_ratio", "ratio"},
    {"agg.fold", "count"},
    {"agg.report_tx", "count"},
    // net
    {"net.loop_cpu_ratio", "ratio"},
    {"net.cpu_us_per_rx", "us"},
    {"net.batch.coalesce", "ratio"},
    {"net.rel.rtx_ratio", "ratio"},
    {"loop.wakeups", "count"},
    {"loop.fd_events", "count"},
    {"net.udp.rx", "count"},
    {"net.udp.drain_yield", "count"},
    {"net.sync.resend", "count"},
    {"net.frame.bad", "count"},
    // obs
    {"obs.unattributed_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const SpanStat& at(const SpanStats& s, SpanKind k) {
  return s[static_cast<std::size_t>(k)];
}

/// Self time of `k` as a share of the timed phase's wall time: driver
/// spans count in full, worker spans divided by the shard count (the
/// workers run side by side inside the driver's sim.run span).
double self_s(const SimTrace& t, SpanKind k) {
  const double workers = static_cast<double>(at(t.timed.workers, k).self_ns) /
                         static_cast<double>(t.shards);
  double ns = static_cast<double>(at(t.timed.driver, k).self_ns) + workers;
  if (k == SpanKind::kSimRun) {
    // run_until wall not spent in worker-thread upcalls.
    double busy = 0.0;
    for (const auto b : t.timed.worker_busy_ns) busy += static_cast<double>(b);
    ns -= busy / static_cast<double>(t.shards);
  }
  return ns * 1e-9;
}

/// Mean self time per call of `k` across every thread, ns.
double per_call_ns(const TraceSnapshot& s, SpanKind k) {
  const auto n = at(s.driver, k).count + at(s.workers, k).count;
  return ratio(static_cast<double>(at(s.driver, k).self_ns +
                                   at(s.workers, k).self_ns),
               static_cast<double>(n));
}

double per_call_allocs(const TraceSnapshot& s, SpanKind k) {
  const auto n = at(s.driver, k).count + at(s.workers, k).count;
  return ratio(static_cast<double>(at(s.driver, k).self_allocs +
                                   at(s.workers, k).self_allocs),
               static_cast<double>(n));
}

volatile std::size_t g_sink = 0;

/// Repeats `body` over the sample until ~50 ms have passed; ns per item.
template <typename Fn>
double time_per_item(std::size_t items, Fn&& body) {
  if (items == 0) return 0.0;
  std::size_t done = 0;
  const std::int64_t start = wall_ns();
  std::int64_t elapsed = 0;
  do {
    body();
    done += items;
    elapsed = wall_ns() - start;
  } while (elapsed < 50'000'000);
  return static_cast<double>(elapsed) / static_cast<double>(done);
}

/// Replays sampled broadcast frames through the wire layer.
void report_wire(const SimTrace& t, Result& r) {
  std::vector<std::unique_ptr<tota::Tuple>> tuples;
  std::vector<std::span<const std::uint8_t>> bodies;
  for (const auto& f : t.frames) {
    const auto frame = tota::wire::Frame::decode(f);
    if (frame.kind != tota::wire::FrameKind::kTuple) continue;
    bodies.push_back(frame.tuple_body);
    tota::wire::Reader rd(frame.tuple_body);
    tuples.push_back(tota::Tuple::decode(rd));
  }
  r.set("wire.frame_decode_ns", time_per_item(t.frames.size(), [&] {
          for (const auto& f : t.frames) {
            g_sink = g_sink + static_cast<std::size_t>(
                                  tota::wire::Frame::decode(f).kind);
          }
        }),
        "ns");
  r.set("wire.tuple_decode_ns", time_per_item(bodies.size(), [&] {
          for (const auto& b : bodies) {
            tota::wire::Reader rd(b);
            g_sink = g_sink + static_cast<std::size_t>(
                                  tota::Tuple::decode(rd)->hop());
          }
        }),
        "ns");
  r.set("wire.tuple_encode_ns", time_per_item(tuples.size(), [&] {
          for (const auto& tuple : tuples) {
            g_sink = g_sink + tota::wire::Frame::tuple(
                                  [&](tota::wire::Writer& w) {
                                    tuple->encode(w);
                                  })
                                  .size();
          }
        }),
        "ns");
  const auto hit = static_cast<double>(get(t.counts, "wire.frame.decode_hit"));
  const auto miss =
      static_cast<double>(get(t.counts, "wire.frame.decode_miss"));
  r.set("wire.decode_hit_rate", ratio(hit, hit + miss), "ratio");
  r.set("wire.bytes_per_frame",
        ratio(static_cast<double>(get(t.counts, "radio.tx_bytes")),
              static_cast<double>(get(t.counts, "radio.tx"))),
        "B");
}

}  // namespace

Counts counts_of(const tota::obs::MetricsRegistry& registry) {
  Counts out;
  for (const auto& [name, c] : registry.counters()) out[name] = c.value();
  return out;
}

void add_delta(Counts& into, const Counts& after, const Counts& before) {
  for (const auto& [name, v] : after) into[name] += v - get(before, name);
}

std::int64_t get(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

Counts deterministic_counts(const Counts& c) {
  Counts out;
  for (const auto& [name, v] : c) {
    for (const char* prefix :
         {"radio.", "engine.", "maint.", "bus.cq.", "agg."}) {
      if (name.rfind(prefix, 0) == 0) out[name] = v;
    }
  }
  return out;
}

void init_layer_metrics(Result& r) {
  for (const auto& m : kLayerMetrics) r.set(m.name, 0.0, m.unit);
}

void accumulate(TraceSnapshot& into, const TraceSnapshot& add) {
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    for (auto [dst, src] : {std::pair{&into.driver[i], &add.driver[i]},
                            std::pair{&into.workers[i], &add.workers[i]}}) {
      dst->count += src->count;
      dst->total_ns += src->total_ns;
      dst->self_ns += src->self_ns;
      dst->self_allocs += src->self_allocs;
    }
  }
  if (into.worker_busy_ns.size() < add.worker_busy_ns.size()) {
    into.worker_busy_ns.resize(add.worker_busy_ns.size(), 0);
  }
  for (std::size_t i = 0; i < add.worker_busy_ns.size(); ++i) {
    into.worker_busy_ns[i] += add.worker_busy_ns[i];
  }
}

void report_sim_layers(const std::string& workload, const SimTrace& t,
                       Result& r) {
  const double rounds = std::max(1, t.rounds);
  const auto per_round = [&](const char* counter) {
    return static_cast<double>(get(t.counts, counter)) / rounds;
  };

  // --- time accounting of the timed phase, per round ---------------------
  const double sim_s = self_s(t, SpanKind::kSimRun) +
                       self_s(t, SpanKind::kSimBroadcast) +
                       self_s(t, SpanKind::kSimSchedule);
  const double engine_s =
      self_s(t, SpanKind::kEngineRx) + self_s(t, SpanKind::kInject);
  const double timer_s = self_s(t, SpanKind::kTimer);
  const double maint_s =
      self_s(t, SpanKind::kLink) + self_s(t, SpanKind::kCtrlRx);
  const double space_s =
      self_s(t, SpanKind::kReadOne) + self_s(t, SpanKind::kPredRead);
  const double agg_s = self_s(t, SpanKind::kAggPublish);
  const double attributed = sim_s + engine_s + timer_s + maint_s + space_s +
                            agg_s;
  const double unattributed = t.wall_s - attributed;
  std::fprintf(stderr,
               "time accounting, %s, %d round(s), timed wall %.4f s:\n"
               "  sim      %10.4f s\n  engine   %10.4f s\n"
               "  timers   %10.4f s\n  maint    %10.4f s\n"
               "  space    %10.4f s\n  agg      %10.4f s\n"
               "  unattrib %10.4f s\n  total    %10.4f s\n",
               workload.c_str(), t.rounds, t.wall_s, sim_s, engine_s,
               timer_s, maint_s, space_s, agg_s, unattributed,
               attributed + unattributed);
  r.set("sim.self_s", sim_s / rounds, "s");
  r.set("engine.self_s", engine_s / rounds, "s");
  r.set("tota.timer_s", timer_s / rounds, "s");
  r.set("maint.self_s", maint_s / rounds, "s");
  r.set("space.self_s", space_s / rounds, "s");
  r.set("agg.self_s", agg_s / rounds, "s");
  r.set("obs.unattributed_s", unattributed / rounds, "s");

  // --- sim -----------------------------------------------------------------
  r.set("sim.broadcast_ns", per_call_ns(t.timed, SpanKind::kSimBroadcast),
        "ns");
  r.set("sim.broadcast_allocs",
        per_call_allocs(t.timed, SpanKind::kSimBroadcast), "count");
  r.set("sim.schedule_ns", per_call_ns(t.timed, SpanKind::kSimSchedule), "ns");
  for (const char* c :
       {"radio.tx", "radio.rx", "engine.store", "engine.propagate",
        "engine.drop.duplicate", "engine.drop.enter", "maint.retract_started",
        "maint.retract_cascaded", "maint.heal_reprop", "maint.probe_tx",
        "engine.drop.holddown", "bus.publish", "agg.fold", "agg.report_tx"}) {
    r.set(c, per_round(c), "count");
  }

  // --- emu -------------------------------------------------------------------
  const double setups = std::max(1, t.setups);
  r.set("emu.spawn_s",
        static_cast<double>(at(t.setup.driver, SpanKind::kEmuSpawn).total_ns) *
            1e-9 / setups,
        "s");
  r.set("emu.seal_s",
        static_cast<double>(at(t.setup.driver, SpanKind::kEmuSeal).total_ns) *
            1e-9 / setups,
        "s");

  // --- engine and maintenance -------------------------------------------
  const double rx_ns = per_call_ns(t.timed, SpanKind::kEngineRx);
  r.set("engine.rx_ns", rx_ns, "ns");
  r.set("engine.rx_allocs", per_call_allocs(t.timed, SpanKind::kEngineRx),
        "count");
  r.set("engine.inject_ns", per_call_ns(t.timed, SpanKind::kInject), "ns");
  r.set("engine.useful_ratio",
        ratio(per_round("engine.store"), per_round("radio.rx")), "ratio");
  r.set("maint.link_ns", per_call_ns(t.timed, SpanKind::kLink), "ns");
  r.set("maint.ctrl_rx_ns", per_call_ns(t.timed, SpanKind::kCtrlRx), "ns");
  r.set("maint.tx_per_flap",
        ratio(per_round("radio.tx"), per_round("link.down")), "count");

  // --- space, bus, aggregator ------------------------------------------
  r.set("space.read_one_ns", per_call_ns(t.timed, SpanKind::kReadOne), "ns");
  r.set("space.pred_read_ns", per_call_ns(t.timed, SpanKind::kPredRead), "ns");
  {
    const auto& d1 = at(t.timed.driver, SpanKind::kReadOne);
    const auto& d2 = at(t.timed.driver, SpanKind::kPredRead);
    r.set("space.read_allocs",
          ratio(static_cast<double>(d1.self_allocs + d2.self_allocs),
                static_cast<double>(d1.count + d2.count)),
          "count");
  }
  r.set("space.candidate_ratio",
        ratio(per_round("space.query.candidates"),
              per_round("space.query.naive_candidates")),
        "ratio");
  r.set("space.residual_per_query",
        ratio(per_round("space.plan.residual_evals"),
              per_round("space.query.indexed") + per_round("space.query.scan")),
        "count");
  r.set("space.resident_per_node", t.resident_per_node, "count");
  r.set("bus.fire_ratio",
        ratio(per_round("bus.dispatch.fired"),
              per_round("bus.dispatch.candidates")),
        "ratio");
  r.set("bus.cq.delta_ratio",
        ratio(per_round("bus.cq.added") + per_round("bus.cq.updated") +
                  per_round("bus.cq.removed"),
              per_round("bus.cq.evals")),
        "ratio");
  r.set("agg.publish_ns", per_call_ns(t.timed, SpanKind::kAggPublish), "ns");
  r.set("agg.coalesce_ratio",
        ratio(per_round("agg.flush"), per_round("agg.delta")), "ratio");

  // --- wire and the steady-store probe ---------------------------------
  report_wire(t, r);
  const SteadyProbe probe = run_steady_probe(t.frames);
  r.set("engine.rx_steady64_ns", probe.rx64_ns, "ns");
  r.set("engine.rx_steady1k_ns", probe.rx1k_ns, "ns");
  r.set("space.put_ns", probe.put_ns, "ns");
  r.set("engine.rx_insitu_per_steady1k", ratio(rx_ns, probe.rx1k_ns),
        "ratio");
  std::fprintf(stderr,
               "receive cost: in situ %.1f ns/frame (useful ratio %.3f), "
               "steady store 64: %.1f ns, 1k: %.1f ns, put at 1k: %.1f ns; "
               "in situ / steady 1k = %.3f\n",
               rx_ns, ratio(per_round("engine.store"), per_round("radio.rx")),
               probe.rx64_ns, probe.rx1k_ns, probe.put_ns,
               ratio(rx_ns, probe.rx1k_ns));
}

}  // namespace perf
