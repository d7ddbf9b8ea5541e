// SOAK — the gradient field on an adverse channel (net::FaultInjector
// threaded through sim::ShardedSim, docs/NET.md).
//
// The scenario benches (fig1, sec5x) run on a benign medium; this binary
// quantifies what the event-driven protocol keeps — and loses — when the
// channel itself misbehaves:
//
//   (1) flood coverage/accuracy vs drop probability: with no anti-entropy
//       round, every percent of loss during the flood is a permanent hole
//       in the field (the live runtime's discovery-restart resync exists
//       precisely to plug these after an outage);
//   (2) the full chaos mix (drop + duplicate + reorder + truncate +
//       corrupt + a blackout window) at three seeds, with the injector's
//       conservation law checked per run.
//
// Like every experiment binary it writes BENCH_soak.json via emit_json();
// its result fields are additive to the bench artefact set, so the
// determinism checker's named baselines (fig1, sec51) are untouched.
#include "exp_common.h"

using namespace tota;

namespace {

/// The chaos mix the soak test suite (tests/test_soak.cc) converges
/// under; duplicated here so the bench numbers and the test invariants
/// describe the same adversary.
net::FaultPlan chaos_plan() {
  net::FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.1;
  plan.reorder = 0.25;
  plan.reorder_window = 5;
  plan.truncate = 0.05;
  plan.corrupt = 0.05;
  // One mid-run blackout: empty group = every path severed.
  plan.partitions.push_back(
      {SimTime::from_seconds(3), SimTime::from_seconds(1), {}});
  return plan;
}

}  // namespace

int main() {
  exp::section("SOAK(1): flood coverage vs drop probability (6x6 grid)");
  std::printf("%-10s %-12s %-12s %-12s %-12s\n", "drop", "coverage",
              "accuracy", "fault_drop", "tx/node");
  for (const double drop : {0.0, 0.1, 0.3, 0.5}) {
    auto options = exp::manet_options(7);
    options.net.fault.drop = drop;  // drop == 0 stays a benign plan
    exp::BenchWorld world(options);
    const auto nodes = world.spawn_grid(6, 6, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const auto tx = exp::tx_cost(world, [&] {
      world.mw(nodes.front())
          .inject(std::make_unique<tuples::GradientTuple>("soak"));
      world.run_for(SimTime::from_seconds(5));
    });
    const Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
    std::printf("%-10.2f %-12.3f %-12.3f %-12lld %-12.2f\n", drop,
                exp::coverage(world, p),
                exp::gradient_accuracy(world, nodes.front()),
                static_cast<long long>(world.metrics().get("net.fault.drop")),
                static_cast<double>(tx) / static_cast<double>(nodes.size()));
  }
  std::printf(
      "expected shape: coverage/accuracy sag as drop grows — a one-shot\n"
      "flood with event-driven maintenance has no anti-entropy round, so\n"
      "a frame lost on a static network is a hole that never heals (the\n"
      "live runtime's discovery-restart resync is the repair path).\n");

  exp::section("SOAK(2): full chaos mix, three seeds (6x6 grid, 10 s)");
  std::printf("%-6s %-10s %-10s %-9s %-9s %-7s %-9s %-7s %-7s %-9s %-10s\n",
              "seed", "coverage", "accuracy", "proc", "deliv", "drop",
              "dup", "reord", "damage", "part", "conserved");
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto options = exp::manet_options(seed);
    options.net.fault = chaos_plan();
    exp::BenchWorld world(options);
    const auto nodes = world.spawn_grid(6, 6, 80.0);
    world.run_for(SimTime::from_seconds(1));
    world.mw(nodes.front())
        .inject(std::make_unique<tuples::GradientTuple>("soak"));
    // A second injection lands inside the blackout window, so its flood
    // meets the severed channel head-on (partition_drop > 0).
    world.run_for(SimTime::from_millis(2200));
    world.mw(nodes.back())
        .inject(std::make_unique<tuples::GradientTuple>("blackout"));
    world.run_for(SimTime::from_millis(7800));

    const auto m = world.metrics();
    const auto processed = m.get("net.fault.processed");
    const auto delivered = m.get("net.fault.delivered");
    const auto dropped = m.get("net.fault.drop");
    const auto part = m.get("net.fault.partition_drop");
    // held() must be zero this long after the last transmission (the
    // hold timer drains lulls), so conservation closes exactly.
    const bool conserved = processed == delivered + dropped + part;
    const Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
    std::printf(
        "%-6llu %-10.3f %-10.3f %-9lld %-9lld %-7lld %-9lld %-7lld "
        "%-7lld %-9lld %-10s\n",
        static_cast<unsigned long long>(seed), exp::coverage(world, p),
        exp::gradient_accuracy(world, nodes.front()),
        static_cast<long long>(processed), static_cast<long long>(delivered),
        static_cast<long long>(dropped), static_cast<long long>(m.get(
            "net.fault.dup")),
        static_cast<long long>(m.get("net.fault.reorder")),
        static_cast<long long>(m.get("net.fault.truncate") +
                               m.get("net.fault.corrupt")),
        static_cast<long long>(part), conserved ? "yes" : "NO");
  }
  std::printf(
      "expected shape: every row conserved=yes (processed == delivered +\n"
      "drop + partition_drop once the hold queues drain); coverage well\n"
      "below 1.0 — the same mix the soak test converges under, but there\n"
      "the restart-storm resync repairs the field afterwards.\n");

  exp::emit_json("soak");
  return 0;
}
