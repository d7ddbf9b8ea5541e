// SEC6-P — the performance evaluation the paper defers to future work:
// "quantifying the TOTA delays in updating the tuples distributed
// structures in response to dynamic changes."
//
// Three sweeps:
//   (1) repair delay + message overhead after killing one relay, vs.
//       network size;
//   (2) the same vs. network density (average degree);
//   (3) steady-state maintenance traffic vs. churn rate.
//
// "Repair delay" = simulated time from the topology change until every
// node's replica again equals the BFS oracle.
#include "exp_common.h"

using namespace tota;

namespace {

/// Runs until gradient_accuracy == 1 or deadline; returns elapsed time
/// (negative when the deadline was hit).
double repair_delay_s(emu::ShardedWorld& world, NodeId source,
                      double deadline_s) {
  const SimTime start = world.now();
  while (world.now() - start < SimTime::from_seconds(deadline_s)) {
    world.run_for(SimTime::from_millis(20));
    if (exp::gradient_accuracy(world, source) == 1.0) {
      return (world.now() - start).seconds();
    }
  }
  return -1.0;
}

}  // namespace

int main() {
  exp::section(
      "SEC6-P(1): repair after cutting a slit through the grid, vs size");
  // Killing one interior node of a grid changes no BFS distance (paths
  // route around at equal length), so instead a vertical slit of nodes is
  // removed from the middle column, leaving only the top row as a bridge:
  // every node beyond the slit must *stretch* its distance — the hard
  // repair direction (retract + hold-down + rebuild).
  std::printf("%-10s %-12s %-14s %-12s %-12s %-14s %-14s\n", "nodes",
              "stretched", "repair_ms", "rep_p50_ms", "rep_p95_ms",
              "repair_tx", "tx_per_node");
  for (const int side : {4, 6, 8, 10, 12}) {
    exp::BenchWorld world(exp::manet_options(41));
    const auto grid = world.spawn_grid(side, side, 80.0);
    world.run_for(SimTime::from_seconds(1));
    // Bottom-left corner: the surviving row-0 bridge is then a detour,
    // so nodes across the slit genuinely stretch.
    const NodeId source = grid[static_cast<std::size_t>((side - 1) * side)];
    world.mw(source).inject(std::make_unique<tuples::GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(5));

    const auto before_oracle = world.net().topology().hop_distances(source);
    const int col = side / 2;
    const auto before = world.metrics().get("radio.tx");
    for (int row = 1; row < side; ++row) {
      world.despawn(grid[static_cast<std::size_t>(row * side + col)]);
    }
    // How many surviving nodes now sit farther from the source?
    int stretched = 0;
    const auto after_oracle = world.net().topology().hop_distances(source);
    for (const auto& [n, d] : after_oracle) {
      const auto it = before_oracle.find(n);
      if (it != before_oracle.end() && d > it->second) ++stretched;
    }
    const double d = repair_delay_s(world, source, 20.0);
    const auto tx = world.metrics().get("radio.tx") - before;
    const auto nodes_left = world.nodes().size();
    // Per-replica repair latency, from the engine's maint.repair_ms
    // histogram (retraction → reinstallation, per node) rather than the
    // oracle-polling loop above, which measures global convergence.
    auto row_metrics = world.metrics();
    const auto& repair = row_metrics.histogram("maint.repair_ms");
    std::printf("%-10d %-12d %-14.0f %-12.0f %-12.0f %-14lld %-14.2f\n",
                side * side, stretched, d * 1000.0, repair.quantile(0.5),
                repair.quantile(0.95), static_cast<long long>(tx),
                static_cast<double>(tx) / static_cast<double>(nodes_left));
  }
  std::printf(
      "expected shape: repair delay ~= hold-down window (150 ms) + a few\n"
      "hop latencies, growing mildly with the stretched region's depth;\n"
      "repair traffic tracks the number of stretched nodes, not N.\n"
      "rep_p50/p95 are per-replica retract->reinstall latencies from the\n"
      "maint.repair_ms histogram: p50 ~= one hold-down round, p95 the\n"
      "deepest ring of the stretched region.\n");

  exp::section(
      "SEC6-P(2): repair after a blast hole, vs density (80 nodes)");
  // A disc of nodes around the arena centre fails at once (the victim
  // set scales with density); survivors reroute around the hole.
  std::printf("%-12s %-12s %-10s %-14s %-14s\n", "range_m", "avg_degree",
              "killed", "repair_ms", "repair_tx");
  for (const double range : {110.0, 140.0, 170.0, 200.0}) {
    Summary delay_ms;
    Summary tx;
    Summary degree;
    Summary killed;
    for (const std::uint64_t seed : {51u, 52u, 53u, 54u}) {
      exp::BenchWorld world(exp::manet_options(seed, range));
      world.spawn_random(80, Rect{{0, 0}, {600, 600}});
      world.run_for(SimTime::from_seconds(1));
      auto nodes = world.nodes();
      double deg = 0;
      for (const NodeId n : nodes) {
        deg += static_cast<double>(
            world.net().topology().neighbors(n).size());
      }
      // Source: the node nearest the arena corner.
      NodeId source = nodes[0];
      for (const NodeId n : nodes) {
        if (world.net().position(n).norm() <
            world.net().position(source).norm()) {
          source = n;
        }
      }
      world.mw(source).inject(std::make_unique<tuples::GradientTuple>("f"));
      world.run_for(SimTime::from_seconds(5));
      if (exp::gradient_accuracy(world, source) < 1.0) continue;
      degree.add(deg / static_cast<double>(nodes.size()));

      const auto before = world.metrics().get("radio.tx");
      int blast = 0;
      for (const NodeId n : nodes) {
        if (n != source &&
            distance(world.net().position(n), {300, 300}) < 110.0) {
          world.despawn(n);
          ++blast;
        }
      }
      killed.add(blast);
      const double d = repair_delay_s(world, source, 20.0);
      if (d < 0) continue;
      delay_ms.add(d * 1000.0);
      tx.add(static_cast<double>(world.metrics().get("radio.tx") -
                                 before));
    }
    std::printf("%-12.0f %-12.1f %-10.1f %-14.0f %-14.0f\n", range,
                degree.mean(), killed.mean(), delay_ms.mean(), tx.mean());
  }
  std::printf(
      "expected shape: repair delay sits near the hold-down constant\n"
      "(~150 ms) regardless of density; maintenance traffic grows with\n"
      "density (more replicas overhear the damage and answer probes).\n");

  exp::section("SEC6-P(3): maintenance traffic vs churn rate (8x8 grid)");
  std::printf("%-16s %-16s %-16s\n", "churn_per_min", "tx_per_s",
              "final_accuracy");
  for (const int churn_per_min : {0, 6, 12, 30, 60}) {
    exp::BenchWorld world(exp::manet_options(61));
    const auto grid = world.spawn_grid(8, 8, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const NodeId source = grid[0];
    world.mw(source).inject(std::make_unique<tuples::GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(5));

    const double duration_s = 60.0;
    const auto before = world.metrics().get("radio.tx");
    Rng churn_rng(99);
    // Alternate kill/spawn to hold the population roughly steady.
    int events = static_cast<int>(duration_s / 60.0 * churn_per_min);
    for (int e = 0; e < events; ++e) {
      world.run_for(SimTime::from_seconds(duration_s /
                                          std::max(events, 1)));
      const auto nodes = world.nodes();
      if (e % 2 == 0 && nodes.size() > 40) {
        NodeId victim = nodes[churn_rng.below(nodes.size())];
        if (victim != source) world.despawn(victim);
      } else {
        world.spawn({churn_rng.uniform(0, 560), churn_rng.uniform(0, 560)});
      }
    }
    if (events == 0) world.run_for(SimTime::from_seconds(duration_s));
    world.run_for(SimTime::from_seconds(5));  // settle
    const auto tx = world.metrics().get("radio.tx") - before;
    std::printf("%-16d %-16.1f %-16.2f\n", churn_per_min,
                static_cast<double>(tx) / (duration_s + 5.0),
                exp::gradient_accuracy(world, source));
  }
  std::printf(
      "expected shape: maintenance traffic grows roughly linearly with\n"
      "churn while accuracy stays ~1.0 — the adaptivity the paper claims,\n"
      "at a quantified price.\n");

  exp::section("SEC6-P summary: per-replica repair latency, whole run");
  const auto& repair =
      obs::default_hub().metrics.histogram("maint.repair_ms");
  std::printf("maint.repair_ms %s\n", repair.str().c_str());

  exp::emit_json("sec6_maintenance");
  return 0;
}
