// AGGREGATION — in-network folding vs naive gather-at-source on the
// paper's own cost metric: radio transmissions.
//
// Every node holds one integer reading.  The folding strategy runs an
// Aggregator per node (docs/AGGREGATION.md): partial sums travel one
// hop at a time along the gradient tree, so the sink pays O(nodes)
// messages to assemble the first answer and only O(depth) per
// subsequent change.  The naive strategy floods every raw reading to
// the whole network so the sink can add them up locally — O(nodes) per
// *change*, O(nodes²) for the initial gather.
//
// Sections:
//   1. fold vs gather at three grid sizes (setup cost + one-change cost)
//   2. heterogeneous devices: duty-cycled motes + a gateway sink, with
//      refresh_on_tick recovering reports the sleepers missed
//      (net.duty_drop / net.mtu_drop accounting, docs/OBSERVABILITY.md)
//   3. sharded census at each TOTA_BENCH_THREADS shard count (default
//      "1,2,4") — the folded answer is shard-count invariant
//
// Writes BENCH_aggregation.json.  Every exported number is
// deterministic per (seed, shard_count); there are no wall-clock keys.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "emu/sharded_world.h"
#include "exp_common.h"
#include "net/device_profile.h"
#include "tuples/aggregator.h"

using namespace tota;
using tuples::Aggregator;
using tuples::AggregationTuple;
using tuples::AggOp;
using tuples::AggregatorOptions;
using tuples::GradientTuple;

namespace {

/// One node's reading: a scope-0 (local-only) tuple the contribution
/// pattern picks up.  Publishing is free — no frame leaves the node.
void put_reading(Middleware& mw, const char* name, std::int64_t val) {
  Pattern mine = Pattern::of_type(GradientTuple::kTag);
  mine.eq("name", name);
  mw.take(mine);
  auto r = std::make_unique<GradientTuple>(name, 0);
  r->content().set("val", val);
  mw.inject(std::move(r));
}

Pattern reading_pattern(const char* name) {
  Pattern p = Pattern::of_type(GradientTuple::kTag);
  p.eq("name", name).exists("val");
  return p;
}

std::vector<std::uint32_t> threads_knob() {
  const char* env = std::getenv("TOTA_BENCH_THREADS");
  const std::string spec = env != nullptr && *env != '\0' ? env : "1,2,4";
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

}  // namespace

int main() {
  auto& metrics = obs::default_hub().metrics;

  // --- 1: message cost, folding vs gather-at-source ------------------------
  exp::section("AGGREGATION: fold vs gather, tx per answer");
  for (const int side : {4, 6, 8}) {
    const int n = side * side;
    const std::string label = "n=" + std::to_string(n);

    // (a) in-network folding.
    double fold_setup = 0, fold_update = 0, folded = 0;
    {
      exp::BenchWorld world(exp::manet_options(71 + side));
      const auto ids = world.spawn_grid(side, side, 60.0);
      world.run_for(SimTime::from_seconds(1));
      std::vector<std::unique_ptr<Aggregator>> aggs;
      for (const NodeId id : ids) {
        aggs.push_back(std::make_unique<Aggregator>(world.mw(id)));
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        put_reading(world.mw(ids[i]), "r", static_cast<std::int64_t>(i));
      }
      fold_setup = static_cast<double>(exp::tx_cost(world, [&] {
        auto spec = std::make_unique<AggregationTuple>("r", AggOp::kSum);
        spec->over("val").matching(reading_pattern("r"));
        aggs[0]->ask(std::move(spec));
        world.run_for(SimTime::from_seconds(5));
      }));
      // One reading changes in the far corner: re-reports cascade up the
      // tree — O(depth) frames, not O(n).
      fold_update = static_cast<double>(exp::tx_cost(world, [&] {
        put_reading(world.mw(ids.back()), "r", 1000);
        world.run_for(SimTime::from_seconds(3));
      }));
      folded = aggs[0]->result("r").value_or(-1);
    }

    // (b) naive gather-at-source: flood every raw reading everywhere.
    double gather_setup = 0, gather_update = 0, gathered = 0;
    {
      exp::BenchWorld world(exp::manet_options(71 + side));
      const auto ids = world.spawn_grid(side, side, 60.0);
      world.run_for(SimTime::from_seconds(1));
      gather_setup = static_cast<double>(exp::tx_cost(world, [&] {
        for (std::size_t i = 0; i < ids.size(); ++i) {
          auto r = std::make_unique<GradientTuple>("flood");
          r->content().set("val", static_cast<std::int64_t>(i));
          world.mw(ids[i]).inject(std::move(r));
        }
        world.run_for(SimTime::from_seconds(5));
      }));
      gather_update = static_cast<double>(exp::tx_cost(world, [&] {
        auto r = std::make_unique<GradientTuple>("flood");
        r->content().set("val", static_cast<std::int64_t>(1000));
        world.mw(ids.back()).inject(std::move(r));
        world.run_for(SimTime::from_seconds(3));
      }));
      // The gathering sink dedups raw readings by source, newest
      // injection (highest sequence) wins — superseded floods linger
      // in the space until maintenance reclaims them.
      std::map<NodeId, std::pair<std::uint64_t, double>> newest;
      for (const auto& t :
           world.mw(ids[0]).read(reading_pattern("flood"))) {
        const NodeId src = t->uid().origin();
        const std::uint64_t seq = t->uid().sequence();
        const double val = t->content().at("val").as_number();
        const auto it = newest.find(src);
        if (it == newest.end() || seq > it->second.first) {
          newest[src] = {seq, val};
        }
      }
      for (const auto& [src, sv] : newest) gathered += sv.second;
    }

    exp::row(label, {{"fold_setup_tx", fold_setup},
                     {"fold_update_tx", fold_update},
                     {"gather_setup_tx", gather_setup},
                     {"gather_update_tx", gather_update},
                     {"folded", folded},
                     {"gathered", gathered}});
    const std::string key = "bench.agg.n" + std::to_string(n);
    metrics.gauge(key + ".fold_setup_tx").set(fold_setup);
    metrics.gauge(key + ".fold_update_tx").set(fold_update);
    metrics.gauge(key + ".gather_setup_tx").set(gather_setup);
    metrics.gauge(key + ".gather_update_tx").set(gather_update);
    metrics.gauge(key + ".folded").set(folded);
  }
  std::printf(
      "\nexpected shape: both strategies pay O(n) to assemble the first\n"
      "answer (gather pays ~n floods = n*tx(flood)), but a single changed\n"
      "reading costs the fold O(tree depth) frames vs another full flood\n"
      "for the gather — the gap widens with n.\n");

  // --- 2: heterogeneous devices --------------------------------------------
  exp::section("AGGREGATION: duty-cycled motes + gateway sink (5x5)");
  {
    exp::BenchWorld world(exp::manet_options(83));
    const auto ids = world.spawn_grid(5, 5, 60.0);
    net::DeviceProfile mote;
    mote.duty_cycle = 0.5;  // radio awake half of every 100 ms window
    net::DeviceProfile gateway;
    gateway.gateway = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      world.set_profile(ids[i], i == 0 ? gateway : mote);
    }
    world.run_for(SimTime::from_seconds(1));
    // refresh_on_tick re-sends reports the sleeping receivers missed.
    AggregatorOptions opts;
    opts.refresh_on_tick = true;
    std::vector<std::unique_ptr<Aggregator>> aggs;
    for (const NodeId id : ids) {
      aggs.push_back(std::make_unique<Aggregator>(world.mw(id), opts));
    }
    for (auto& a : aggs) a->set_sensor("census", 1.0);
    aggs[0]->ask(
        std::make_unique<AggregationTuple>("census", AggOp::kCount));
    world.run_for(SimTime::from_seconds(10));
    const double census = aggs[0]->result("census").value_or(-1);
    const auto duty_drops =
        static_cast<double>(world.metrics().get("net.duty_drop"));
    exp::row("duty-cycled census",
             {{"census", census},
              {"nodes", static_cast<double>(ids.size())},
              {"duty_drops", duty_drops}});
    metrics.gauge("bench.agg.hetero.census").set(census);
    metrics.gauge("bench.agg.hetero.duty_drops").set(duty_drops);
    std::printf(
        "\nexpected shape: census reaches the node count despite every\n"
        "mote sleeping half the time (duty_drops > 0 shows frames were\n"
        "really lost; the per-tick refresh recovered them).\n");
  }

  // --- 3: sharded census, shard-count invariant -----------------------------
  exp::section("AGGREGATION: sharded census (6x6), per shard count");
  for (const std::uint32_t shards : threads_knob()) {
    emu::ShardedWorld::Options o;
    o.net.radio.range_m = 100.0;
    o.net.seed = 89;
    o.net.shards = shards;
    emu::ShardedWorld world(o);
    const auto ids = world.spawn_grid(6, 6, 60.0);
    world.seal();
    std::vector<std::unique_ptr<Aggregator>> aggs;
    for (const NodeId id : ids) {
      aggs.push_back(std::make_unique<Aggregator>(world.mw(id)));
    }
    world.run_for(SimTime::from_seconds(1));
    for (auto& a : aggs) a->set_sensor("census", 1.0);
    aggs[0]->ask(
        std::make_unique<AggregationTuple>("census", AggOp::kCount));
    world.run_for(SimTime::from_seconds(5));
    const double census = aggs[0]->result("census").value_or(-1);
    exp::row("shards=" + std::to_string(shards),
             {{"census", census},
              {"nodes", static_cast<double>(ids.size())}});
    metrics.gauge("bench.agg.t" + std::to_string(shards) + ".census")
        .set(census);
  }
  std::printf(
      "\nexpected shape: census = 36 at every shard count — the folded\n"
      "answer is deterministic per (seed, shard_count) and identical\n"
      "across them.\n");

  exp::emit_json("aggregation");
  return 0;
}
