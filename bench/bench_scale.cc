// SCALE — sharded-world macro benchmark: one big churn-heavy world run
// at several shard (= thread) counts.
//
// A ~50k-node degree-4 grid mesh (224×224 at 80 m spacing, diagonals
// fall outside the 100 m range) carries four tuple types at once, every
// node runs a typed subscription, and rotating subsets of nodes teleport
// out of the mesh and back, driving the self-maintenance machinery.  The
// whole scenario repeats once per entry of the thread list, producing
// the scaling curve bench.scale.t<N>.* (docs/SIM.md).
//
// Knobs (environment):
//   TOTA_BENCH_NODES    target population; rounded down to a square grid
//                       (default 50176 = 224²)
//   TOTA_BENCH_THREADS  comma-separated shard counts (default "1,2,4,8")
//
// Writes BENCH_scale.json.  The sim-side counters and the coverage /
// reaction gauges are bit-for-bit reproducible for a fixed knob setting
// (each world is deterministic per (seed, shard_count) — docs/SIM.md);
// only the bench.scale.*_ms/_ns/nodes_per_sec/speedup and
// bench.query.*_ns wall-clock gauges vary run to run, and
// scripts/check_bench_determinism.py --ignore's them in CI.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "emu/sharded_world.h"
#include "exp_common.h"

using namespace tota;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 Clock::now() - start)
                 .count()) /
         1000.0;
}

std::size_t nodes_knob() {
  const char* env = std::getenv("TOTA_BENCH_NODES");
  const long v = env != nullptr ? std::atol(env) : 0;
  return v > 0 ? static_cast<std::size_t>(v) : 50176;
}

std::vector<std::uint32_t> threads_knob() {
  const char* env = std::getenv("TOTA_BENCH_THREADS");
  const std::string spec = env != nullptr && *env != '\0' ? env : "1,2,4,8";
  std::vector<std::uint32_t> out;
  for (std::size_t pos = 0; pos < spec.size();) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long v = std::atol(tok.c_str());
    if (v > 0) out.push_back(static_cast<std::uint32_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) out.push_back(1);
  return out;
}

struct RunResult {
  double spawn_ms = 0;
  double flood_ms = 0;
  double read_one_ns = 0;
  double churn_ms = 0;
  double nodes_per_sec = 0;  // node-sim-seconds advanced per wall second
  double coverage = 0;
  double reactions = 0;
  // Query-layer section (bench.query.*, docs/QUERY.md): continuous-query
  // delta counts are deterministic per (seed, shards); pred_read_ns is
  // wall clock.
  double cq_queries = 0;
  double cq_added = 0;
  double cq_updated = 0;
  double cq_removed = 0;
  double pred_matches = 0;
  double pred_read_ns = 0;
};

/// One full scenario at a given shard count.  Everything except the wall
/// clocks is deterministic per (seed, shards).
RunResult run_one(std::uint32_t shards, int side,
                  obs::MetricsRegistry& into) {
  RunResult r;
  emu::ShardedWorld::Options opts;
  opts.net.radio.range_m = 100.0;
  opts.net.seed = 97;
  opts.net.shards = shards;
  emu::ShardedWorld world(opts);

  const auto t_spawn = Clock::now();
  const auto nodes = world.spawn_grid(side, side, 80.0);
  world.seal();
  world.run_for(SimTime::from_millis(500));
  r.spawn_ms = ms_since(t_spawn);

  // Typed subscriptions on every node: gradient arrivals on one half,
  // advert arrivals on the other.  Reactions run on worker threads, so
  // the tally is the one atomic in the whole scenario.
  std::atomic<std::uint64_t> reactions{0};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Pattern p = i % 2 == 0
                          ? Pattern::of_type(tuples::GradientTuple::kTag)
                          : Pattern::of_type(tuples::AdvertTuple::kTag);
    world.mw(nodes[i]).subscribe(
        p,
        [&reactions](const Event&) {
          reactions.fetch_add(1, std::memory_order_relaxed);
        },
        static_cast<int>(EventKind::kTupleArrived));
  }

  // Continuous queries on a sample of nodes: a standing predicate query
  // over nearby gradient replicas, maintained incrementally through the
  // flood and churn phases below (docs/QUERY.md).
  std::atomic<std::uint64_t> cq_added{0};
  std::atomic<std::uint64_t> cq_updated{0};
  std::atomic<std::uint64_t> cq_removed{0};
  std::size_t cq_queries = 0;
  for (std::size_t i = 0; i < nodes.size(); i += 64) {
    Pattern near = Pattern::of_type(tuples::GradientTuple::kTag);
    near.where("hopcount", Pred::le(16));
    world.mw(nodes[i]).subscribe_query(
        std::move(near), [&cq_added, &cq_updated, &cq_removed](
                             const QueryDelta& d) {
          switch (d.kind) {
            case QueryDelta::Kind::kAdded:
              cq_added.fetch_add(1, std::memory_order_relaxed);
              break;
            case QueryDelta::Kind::kUpdated:
              cq_updated.fetch_add(1, std::memory_order_relaxed);
              break;
            case QueryDelta::Kind::kRemoved:
              cq_removed.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        });
    ++cq_queries;
  }

  // Four tuple types, ten network-wide structures, sources spread over
  // the grid (each structure reaches all ~n nodes, so the flood phase
  // moves ~10n replicas).
  const auto t_flood = Clock::now();
  for (int i = 0; i < 4; ++i) {
    world.mw(nodes[(i * 1511) % nodes.size()])
        .inject(std::make_unique<tuples::GradientTuple>(
            "field" + std::to_string(i)));
  }
  for (int i = 0; i < 2; ++i) {
    world.mw(nodes[(i * 2231 + 57) % nodes.size()])
        .inject(std::make_unique<tuples::AdvertTuple>(
            "sensor" + std::to_string(i)));
  }
  for (int i = 0; i < 2; ++i) {
    world.mw(nodes[(i * 3111 + 113) % nodes.size()])
        .inject(std::make_unique<tuples::FlockTuple>(/*target_distance=*/3));
  }
  for (int i = 0; i < 2; ++i) {
    world.mw(nodes[(i * 4011 + 171) % nodes.size()])
        .inject(std::make_unique<tuples::FloodTuple>(
            "notice" + std::to_string(i), wire::Value{i}));
  }
  world.run_for(SimTime::from_seconds(5));
  r.flood_ms = ms_since(t_flood);

  // Typed read sweep: every node resolves one specific gradient field —
  // the app-tick query pattern (cf. apps/*.cc peek loops).
  const auto t_read = Clock::now();
  constexpr int kSweeps = 4;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Pattern p =
          Pattern::of_type(tuples::GradientTuple::kTag)
              .eq("name", "field" + std::to_string((i + sweep) % 4));
      (void)world.mw(nodes[i]).read_one(p);
    }
  }
  const double read_ms = ms_since(t_read);
  r.read_one_ns =
      read_ms * 1e6 / (kSweeps * static_cast<double>(nodes.size()));

  // Predicate read sweep: the same app-tick query with an AST residual,
  // planned through the type bucket (bench.query.pred_read_ns).
  const auto t_pred = Clock::now();
  std::uint64_t pred_matches = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
    p.eq("name", "field" + std::to_string(i % 4))
        .where("hopcount", Pred::le(24));
    pred_matches += world.mw(nodes[i]).space().read(p).size();
  }
  const double pred_ms = ms_since(t_pred);
  r.pred_matches = static_cast<double>(pred_matches);
  r.pred_read_ns = pred_ms * 1e6 / static_cast<double>(nodes.size());

  // Link flaps: rotating cohorts teleport 50 km away and back — every
  // hop severs ~4 links, cascading retraction/heal rounds through the
  // structures.  This is the phase the scaling curve is about: healing
  // is local, so it parallelizes across shards.
  const auto t_churn = Clock::now();
  constexpr int kRounds = 6;
  const std::size_t flappers = std::max<std::size_t>(nodes.size() / 256, 8);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::pair<NodeId, Vec2>> home;
    for (std::size_t i = 0; i < flappers; ++i) {
      const NodeId id = nodes[(i * 797 + round * 131 + 1) % nodes.size()];
      home.emplace_back(id, world.net().position(id));
      world.move_node(id, Vec2{90000.0 + 200.0 * static_cast<double>(i),
                               90000.0});
    }
    world.run_for(SimTime::from_millis(400));
    for (const auto& [id, pos] : home) world.move_node(id, pos);
    world.run_for(SimTime::from_millis(400));
  }
  world.run_for(SimTime::from_seconds(2));
  r.churn_ms = ms_since(t_churn);

  const double wall_s = (r.flood_ms + read_ms + r.churn_ms) / 1000.0;
  const double sim_s = world.now().seconds() - 0.5;  // minus settle
  r.nodes_per_sec =
      wall_s > 0 ? static_cast<double>(nodes.size()) * sim_s / wall_s : 0;
  r.coverage =
      exp::coverage(world, Pattern::of_type(tuples::GradientTuple::kTag));
  r.reactions = static_cast<double>(reactions.load());
  r.cq_queries = static_cast<double>(cq_queries);
  r.cq_added = static_cast<double>(cq_added.load());
  r.cq_updated = static_cast<double>(cq_updated.load());
  r.cq_removed = static_cast<double>(cq_removed.load());

  world.export_metrics(into);
  return r;
}

}  // namespace

int main() {
  tuples::register_standard_tuples();
  auto& hub = obs::default_hub();

  const std::size_t target = nodes_knob();
  const int side = std::max(2, static_cast<int>(std::sqrt(
                                   static_cast<double>(target))));
  const auto thread_counts = threads_knob();

  exp::section("SCALE: sharded world, " + std::to_string(side * side) +
               " nodes, threads {" + [&] {
                 std::string s;
                 for (const auto t : thread_counts) {
                   if (!s.empty()) s += ",";
                   s += std::to_string(t);
                 }
                 return s;
               }() + "}");

  double base_nps = 0;
  double best_nps = 0;
  for (const std::uint32_t t : thread_counts) {
    const RunResult r = run_one(t, side, hub.metrics);
    std::printf(
        "t=%-2u spawn=%.0fms flood=%.0fms read_one=%.0fns churn=%.0fms "
        "nodes/s=%.3g coverage=%.3f reactions=%.0f cq=%.0f/%.0f/%.0f "
        "pred_read=%.0fns\n",
        t, r.spawn_ms, r.flood_ms, r.read_one_ns, r.churn_ms,
        r.nodes_per_sec, r.coverage, r.reactions, r.cq_added, r.cq_updated,
        r.cq_removed, r.pred_read_ns);

    const std::string pre = "bench.scale.t" + std::to_string(t) + ".";
    hub.metrics.gauge(pre + "spawn_ms").set(r.spawn_ms);
    hub.metrics.gauge(pre + "flood_ms").set(r.flood_ms);
    hub.metrics.gauge(pre + "read_one_ns").set(r.read_one_ns);
    hub.metrics.gauge(pre + "churn_ms").set(r.churn_ms);
    hub.metrics.gauge(pre + "nodes_per_sec").set(r.nodes_per_sec);
    hub.metrics.gauge(pre + "gradient_coverage").set(r.coverage);
    hub.metrics.gauge(pre + "reactions").set(r.reactions);

    const std::string qpre = "bench.query.t" + std::to_string(t) + ".";
    hub.metrics.gauge(qpre + "cq_queries").set(r.cq_queries);
    hub.metrics.gauge(qpre + "cq_added").set(r.cq_added);
    hub.metrics.gauge(qpre + "cq_updated").set(r.cq_updated);
    hub.metrics.gauge(qpre + "cq_removed").set(r.cq_removed);
    hub.metrics.gauge(qpre + "pred_matches").set(r.pred_matches);
    hub.metrics.gauge(qpre + "pred_read_ns").set(r.pred_read_ns);
    if (base_nps == 0) base_nps = r.nodes_per_sec;
    if (r.nodes_per_sec > best_nps) best_nps = r.nodes_per_sec;
  }

  // Index effectiveness across every query of every run — candidates
  // examined vs what naive full scans would have examined.
  const auto candidates = hub.metrics.get("space.query.candidates");
  const auto naive = hub.metrics.get("space.query.naive_candidates");
  const double candidate_ratio =
      naive > 0 ? static_cast<double>(candidates) / static_cast<double>(naive)
                : 1.0;
  std::printf("space candidate_ratio=%.4f (%lld/%lld)\n", candidate_ratio,
              static_cast<long long>(candidates),
              static_cast<long long>(naive));

  hub.metrics.gauge("bench.scale.nodes")
      .set(static_cast<double>(side * side));
  hub.metrics.gauge("bench.scale.nodes_per_sec").set(best_nps);
  hub.metrics.gauge("bench.scale.speedup")
      .set(base_nps > 0 ? best_nps / base_nps : 0.0);
  hub.metrics.gauge("bench.scale.space_candidate_ratio").set(candidate_ratio);

  exp::emit_json("scale");
  return 0;
}
