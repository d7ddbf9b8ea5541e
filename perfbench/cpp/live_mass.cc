// live_mass: net::MassLiveWorld — 60 real-socket loopback nodes on one
// event-loop thread, on the v2 wire (batching, reliable control channel,
// anti-entropy digests).  Set-up is mesh formation, done several times.
// One timed round injects a gradient from a fresh source, polls (1 ms
// slices) until every live node holds the BFS-exact replica, kills the
// source, and polls until no replica is left.  converge_ms is the median
// per-node arrival time (when its engine stored the replica), latency_*
// the per-node retraction times.  This is
// the only workload through src/net and the engine's span receive path.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "net/mass_live.h"
#include "tuples/gradient_tuple.h"
#include "workloads.h"

namespace perf {

namespace {

constexpr int kDefaultNodes = 60;
constexpr int kSetups = 3;
const tota::SimTime kTick = tota::SimTime::from_millis(1);
const tota::SimTime kTimeout = tota::SimTime::from_seconds(30);
/// Every round is padded to this wall length (a round's work takes ~1.8 s,
/// nearly all of it the source's neighbour-expiry wait).
constexpr std::int64_t kRoundNs = 2'500'000'000;

tota::net::MassLiveOptions live_options(int nodes, std::uint64_t seed,
                                        std::uint16_t port) {
  tota::net::MassLiveOptions o;
  o.count = nodes;
  o.transport.mode = tota::net::UdpOptions::Mode::kBroadcast;
  o.transport.group = "127.255.255.255";
  o.transport.port = port;
  o.transport.rcvbuf = 4 << 20;
  o.discovery.beacon_period = tota::SimTime::from_millis(250);
  o.discovery.expiry_missed_beacons = 6;
  o.batch.enabled = true;
  o.batch.flush_delay = tota::SimTime::from_millis(5);
  o.digest_period = tota::SimTime::from_millis(500);
  o.reliable = true;
  o.maintenance.hold_down = tota::SimTime::from_millis(2000);
  o.seed = seed;
  return o;
}

}  // namespace

bool run_live_mass(const Args& args, Result& out, Result* layers,
                   std::string& skip_reason) {
  const int nodes = args.size > 0 ? args.size : kDefaultNodes;
  const std::uint64_t seed = mix_seed(args.seed, 5) % 1000000 + 1;
  // A process-private channel per world: parallel runs and the worlds of
  // one run never share a port.
  const auto port_base =
      static_cast<std::uint16_t>(20000 + (::getpid() % 4000) * 8);

  // --- set-up: mesh formation, several times; the last world is kept ----
  std::vector<double> setup_s;
  std::unique_ptr<tota::net::MassLiveWorld> world;
  for (int s = 0; s < kSetups; ++s) {
    world.reset();
    next_cpu();
    const std::int64_t t0 = wall_ns();
    world = std::make_unique<tota::net::MassLiveWorld>(live_options(
        nodes, seed, static_cast<std::uint16_t>(port_base + s)));
    if (!world->start()) {
      skip_reason = world->error();
      return false;
    }
    const bool meshed =
        world->run_until([&] { return world->mesh_complete(); }, kTimeout,
                         kTick);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    out.check(meshed);
  }
  tota::net::MassLiveWorld& w = *world;

  // --- timed rounds ------------------------------------------------------
  const char* const kCounters[] = {
      "net.udp.tx",      "net.udp.tx_bytes",    "net.udp.rx",
      "loop.wakeups",    "loop.fd_events",      "net.udp.drain_yield",
      "net.sync.resend", "net.frame.bad",       "net.batch.tx",
      "net.batch.chunks", "net.rel.tx",         "net.rel.rtx"};
  Counts before;
  for (const char* c : kCounters) before[c] = w.metric_sum(c);

  std::vector<double> round_ms, cpu_ms, arrivals_ms, retract_ms;
  std::vector<double> node_retract_ms;
  double loop_cpu_ns = 0.0;
  double loop_wall_ns = 0.0;
  const auto run_until = [&](const std::function<bool()>& done) {
    Span s(SpanKind::kSimRun);
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    const bool ok = w.run_until(done, kTimeout, kTick);
    loop_cpu_ns += static_cast<double>(cpu_ns() - c0);
    loop_wall_ns += static_cast<double>(wall_ns() - w0);
    return ok;
  };
  double timed_s = 0.0;
  int round = 0;
  for (; !budget_spent(args, round, timed_s, 3) && round < nodes - 1;
       ++round) {
    const int source = round;
    next_cpu();
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    std::string name = "r";
    name += std::to_string(round);
    const tota::SimTime injected = w.mw(source).platform().now();
    tota::TupleUid uid;
    {
      Span s(SpanKind::kInject);
      uid = w.mw(source).inject(
          std::make_unique<tota::tuples::GradientTuple>(name));
      s.set_uid(uid);
    }
    // Polls read the stores by uid (no copies), so polling every 1 ms
    // stays a small share of the loop's CPU.
    const auto holds = [&](int i) {
      return w.mw(i).space().find(uid) != nullptr;
    };
    const auto exact = [&](int i) {
      const auto* e = w.mw(i).space().find(uid);
      return e != nullptr && e->tuple->hop() == (i == source ? 0 : 1);
    };
    const bool converged = run_until([&] {
      for (int i = 0; i < nodes; ++i) {
        if (w.alive(i) && !exact(i)) return false;
      }
      return true;
    });
    out.check(converged);
    // Each node's arrival is the loop-clock instant its engine stored the
    // replica (µs resolution, independent of the polling tick).
    for (int i = 0; i < nodes; ++i) {
      if (!w.alive(i) || i == source) continue;
      if (const auto* e = w.mw(i).space().find(uid)) {
        arrivals_ms.push_back((e->stored_at - injected).millis());
      }
    }

    // Kill the source; note when each node's replica disappears.
    std::vector<bool> holding(static_cast<std::size_t>(nodes), false);
    for (int i = 0; i < nodes; ++i) holding[i] = w.alive(i) && i != source;
    w.kill(source);
    const std::int64_t k0 = wall_ns();
    const bool drained = run_until([&] {
      int left = 0;
      for (int i = 0; i < nodes; ++i) {
        if (!holding[i]) continue;
        if (!holds(i)) {
          holding[i] = false;
          node_retract_ms.push_back(static_cast<double>(wall_ns() - k0) *
                                    1e-6);
        } else {
          ++left;
        }
      }
      return left == 0;
    });
    retract_ms.push_back(static_cast<double>(wall_ns() - k0) * 1e-6);
    out.check(drained);

    round_ms.push_back(static_cast<double>(wall_ns() - w0) * 1e-6);
    // Pad every round to the same wall length so the periodic traffic
    // (beacons, digests) and its CPU weigh the same in every round.
    run_until([&] { return wall_ns() - w0 >= kRoundNs; });
    cpu_ms.push_back(static_cast<double>(cpu_ns() - c0) * 1e-6);
    timed_s += static_cast<double>(wall_ns() - w0) * 1e-9;
  }

  Counts delta;
  Counts after;
  for (const char* c : kCounters) after[c] = w.metric_sum(c);
  add_delta(delta, after, before);
  const double rounds = std::max(1, round);
  const double per_node_round = static_cast<double>(nodes) * rounds;
  out.set("setup_s", median(setup_s), "s");
  out.set("cpu_ms_per_round", median(cpu_ms), "ms");
  out.set("converge_ms", median(arrivals_ms), "ms");
  out.set("latency_p50_ms", quantile(node_retract_ms, 0.5), "ms");
  out.set("latency_p99_ms", quantile(node_retract_ms, 0.99), "ms");
  out.set("tx_per_node",
          static_cast<double>(get(delta, "net.udp.tx")) / per_node_round,
          "frames");
  out.set("bytes_per_node",
          static_cast<double>(get(delta, "net.udp.tx_bytes")) /
              per_node_round,
          "B");
  out.set("rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr,
               "live_mass: %d rounds, inject to drained p50 %.1f ms, "
               "retract_ms p50 %.1f\n",
               round, median(round_ms), median(retract_ms));

  if (layers != nullptr) {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    layers->set("net.loop_cpu_ratio", ratio(loop_cpu_ns, loop_wall_ns),
                "ratio");
    layers->set("net.cpu_us_per_rx",
                ratio(loop_cpu_ns * 1e-3,
                      static_cast<double>(get(delta, "net.udp.rx"))),
                "us");
    layers->set("net.batch.coalesce",
                ratio(static_cast<double>(get(delta, "net.batch.chunks")),
                      static_cast<double>(get(delta, "net.batch.tx"))),
                "ratio");
    layers->set("net.rel.rtx_ratio",
                ratio(static_cast<double>(get(delta, "net.rel.rtx")),
                      static_cast<double>(get(delta, "net.rel.tx"))),
                "ratio");
    for (const char* c : {"loop.wakeups", "loop.fd_events", "net.udp.rx",
                          "net.udp.drain_yield", "net.sync.resend",
                          "net.frame.bad"}) {
      layers->set(c, static_cast<double>(get(delta, c)) / rounds, "count");
    }
  }
  w.stop();
  return true;
}

}  // namespace perf
