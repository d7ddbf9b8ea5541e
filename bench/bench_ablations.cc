// ABL — ablations of the design choices called out in DESIGN.md §6.
//
//  A1  maintenance on/off: what breaks without link-up re-propagation
//      and retraction (stale structures, blind newcomers) and what each
//      mechanism costs.
//  A2  broadcast vs unicast propagation: transmissions needed to flood a
//      field if every neighbour had to be addressed individually
//      (the 802.11b-handshake cost the prototype avoided via multicast).
//  A3  dedup-by-uid: how many duplicate deliveries the uid filter absorbs
//      during one flood (what naive re-flooding would re-process).
#include "exp_common.h"

using namespace tota;

int main() {
  exp::section(
      "A1: maintenance mechanisms on/off (6x6 grid, slit cut + 1 join)");
  std::printf("%-26s %-14s %-14s %-14s\n", "config", "accuracy",
              "join_covered", "maint_tx");
  struct Config {
    const char* name;
    bool link_up;
    bool link_down;
  };
  for (const Config cfg : {Config{"full maintenance", true, true},
                           Config{"no link-up reprop", false, true},
                           Config{"no retraction", true, false},
                           Config{"none (ablated)", false, false}}) {
    emu::ShardedWorld::Options o = exp::manet_options(71);
    o.maintenance.repropagate_on_link_up = cfg.link_up;
    o.maintenance.retract_on_link_down = cfg.link_down;
    exp::BenchWorld world(o);
    const int side = 6;
    const auto grid = world.spawn_grid(side, side, 80.0);
    world.run_for(SimTime::from_seconds(1));
    // Bottom-left source + a middle-column slit (keeping row 0): nodes
    // past the slit must stretch, so skipping retraction leaves visibly
    // stale (too small) distances.
    const NodeId source = grid[static_cast<std::size_t>((side - 1) * side)];
    world.mw(source).inject(std::make_unique<tuples::GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(3));

    const auto before = world.metrics().get("radio.tx");
    for (int row = 1; row < side; ++row) {
      world.despawn(grid[static_cast<std::size_t>(row * side + side / 2)]);
    }
    world.run_for(SimTime::from_seconds(5));
    const NodeId joiner = world.spawn({6 * 80.0, 0});  // newcomer appears
    world.run_for(SimTime::from_seconds(3));
    const auto maint_tx = world.metrics().get("radio.tx") - before;

    const double joiner_covered =
        world.mw(joiner)
                .read(Pattern::of_type(tuples::GradientTuple::kTag))
                .empty()
            ? 0.0
            : 1.0;
    exp::row(cfg.name,
             {{"accuracy", exp::gradient_accuracy(world, source)},
              {"join_covered", joiner_covered},
              {"maint_tx", static_cast<double>(maint_tx)}});
  }
  std::printf(
      "expected shape: full maintenance = accuracy 1.0 and the joiner\n"
      "covered, at some repair traffic; without link-up reprop the joiner\n"
      "stays blind; without retraction stale values survive the kill;\n"
      "with neither, zero maintenance traffic and both defects.\n");

  exp::section("A2: broadcast economy vs per-link unicast (one field flood)");
  std::printf("%-10s %-14s %-18s %-10s\n", "grid", "broadcast_tx",
              "unicast_equiv_tx", "saving");
  for (const int side : {4, 8, 12}) {
    exp::BenchWorld world(exp::manet_options(72));
    const auto grid = world.spawn_grid(side, side, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const auto cost = exp::tx_cost(world, [&] {
      world.mw(grid[0]).inject(std::make_unique<tuples::GradientTuple>("f"));
      world.run_for(SimTime::from_seconds(5));
    });
    // Unicast equivalent: each broadcast would instead be one frame per
    // neighbour of the sender (plus the 802.11 RTS/CTS/ACK handshake the
    // paper avoids; we count frames only, so this is a lower bound).
    std::int64_t unicast = 0;
    for (const NodeId n : grid) {
      unicast += static_cast<std::int64_t>(
          world.net().topology().neighbors(n).size());
    }
    char label[16];
    std::snprintf(label, sizeof(label), "%dx%d", side, side);
    std::printf("%-10s %-14lld %-18lld %-10.1fx\n", label,
                static_cast<long long>(cost),
                static_cast<long long>(unicast),
                static_cast<double>(unicast) /
                    static_cast<double>(std::max<std::int64_t>(cost, 1)));
  }
  std::printf(
      "expected shape: saving equals the average node degree (~4 on an\n"
      "interior-dominated grid) — the reason the prototype used multicast\n"
      "sockets and why TOTA suits \"really simple devices\".\n");

  exp::section("A3: duplicate absorption by uid dedup (one flood)");
  std::printf("%-10s %-12s %-14s %-16s\n", "grid", "tx", "deliveries",
              "dup_absorbed");
  for (const int side : {4, 8, 12}) {
    exp::BenchWorld world(exp::manet_options(73));
    const auto grid = world.spawn_grid(side, side, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const auto tx_before = world.metrics().get("radio.tx");
    const auto rx_before = world.metrics().get("radio.rx");
    world.mw(grid[0]).inject(std::make_unique<tuples::GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(5));
    const auto tx = world.metrics().get("radio.tx") - tx_before;
    const auto rx = world.metrics().get("radio.rx") - rx_before;
    // Every reception beyond one per node is a duplicate the uid filter
    // absorbed without re-processing or re-propagating.
    const auto nodes = static_cast<std::int64_t>(grid.size());
    char label[16];
    std::snprintf(label, sizeof(label), "%dx%d", side, side);
    std::printf("%-10s %-12lld %-14lld %-16lld\n", label,
                static_cast<long long>(tx), static_cast<long long>(rx),
                static_cast<long long>(rx - (nodes - 1)));
  }
  std::printf(
      "expected shape: deliveries ~= nodes x degree while the structure\n"
      "only needs nodes-1 of them; everything else is absorbed by the\n"
      "middleware-level tuple id (content equality could not do this —\n"
      "field contents differ at every hop).\n");

  exp::section("A4: hold-down duration (repair speed vs repair traffic)");
  // The hold-down is this implementation's guard against the
  // distance-vector count-to-infinity (see engine.h).  Short windows
  // repair faster but let more transient zombie values circulate; long
  // windows trade repair latency for quiet.  Scenario: the 8x8 slit cut
  // from SEC6-P(1).
  std::printf("%-16s %-14s %-14s %-16s\n", "hold_down_ms", "repair_ms",
              "repair_tx", "retractions");
  for (const double hold_ms : {40.0, 80.0, 150.0, 300.0, 600.0}) {
    emu::ShardedWorld::Options o = exp::manet_options(74);
    o.maintenance.hold_down = SimTime::from_millis(hold_ms);
    exp::BenchWorld world(o);
    const int side = 8;
    const auto grid = world.spawn_grid(side, side, 80.0);
    world.run_for(SimTime::from_seconds(1));
    const NodeId source = grid[static_cast<std::size_t>((side - 1) * side)];
    world.mw(source).inject(std::make_unique<tuples::GradientTuple>("f"));
    world.run_for(SimTime::from_seconds(5));

    const auto before = world.metrics().get("radio.tx");
    for (int row = 1; row < side; ++row) {
      world.despawn(grid[static_cast<std::size_t>(row * side + side / 2)]);
    }
    const SimTime start = world.now();
    double repair_s = -1;
    while ((world.now() - start) < SimTime::from_seconds(30)) {
      world.run_for(SimTime::from_millis(10));
      if (exp::gradient_accuracy(world, source) == 1.0) {
        repair_s = (world.now() - start).seconds();
        break;
      }
    }
    const auto tx = world.metrics().get("radio.tx") - before;
    std::uint64_t retractions = 0;
    for (const NodeId n : world.nodes()) {
      const auto& stats = world.mw(n).engine().maintenance_stats();
      retractions += stats.retractions_started + stats.retractions_cascaded;
    }
    std::printf("%-16.0f %-14.0f %-14lld %-16llu\n", hold_ms,
                repair_s * 1000.0, static_cast<long long>(tx),
                static_cast<unsigned long long>(retractions));
  }
  std::printf(
      "expected shape: repair time scales linearly with the hold-down\n"
      "(the stretch rebuilds one probe round per ring) while repair\n"
      "traffic stays flat in this quiet scenario — the window buys\n"
      "zombie-suppression under cross-traffic, not cheaper repairs.\n");
  exp::emit_json("ablations");
  return 0;
}
