// tota_node — live TOTA nodes as a real OS process.
//
// Default mode hosts ONE node: N of these processes on one UDP group
// form a TOTA network with no simulator in sight — discovery beacons
// synthesize the neighbourhood, the engine propagates and self-maintains
// tuples over the shared socket, and every layer above the Platform seam
// is byte-for-byte the code the simulator runs.  docs/NET.md and the
// README's "Running on a real network" section walk through a 3-terminal
// session; scripts/smoke_net.sh drives the same setup from CI.
//
// `--count N` switches to the mass-live mode (net::MassLiveWorld):
// N complete nodes — N sockets, N engines, N metric hubs — share one
// multi-tenant epoll EventLoop in this process, optionally under
// FaultInjector chaos (--drop/--dup/--reorder).  The run injects a
// gradient from the first node, waits for BFS-exact convergence, then
// (--kill-source) crashes the source and waits for every survivor to
// retract the orphaned replica.  scripts/mass_live.sh drives this at
// 300+ nodes in CI.
//
// Output is line-oriented and machine-parseable on purpose (the smoke
// and mass tests grep it):
//   READ t_ms=<time> name=<field> hops=<n|absent>     periodic poll
//   FINAL name=<field> hops=<n|absent> neighbors=<n> up=<n> down=<n>
// and in mass mode:
//   MASS count=<n> backend=<poll|epoll> port=<p>
//   CONVERGED t_ms=<time> nodes=<n>        all live nodes BFS-exact
//   KILL id=<source id>                    --kill-source fired
//   RETRACTED t_ms=<time> leaks=0          all survivors read absent
//   FINAL-MASS nodes=<n> converged=<0|1> leaks=<k> rx=<datagrams>
//     drain_yield=<n> fault_drop=<n> compactions=<n>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/live_platform.h"
#include "net/mass_live.h"
#include "obs/export.h"
#include "tota/middleware.h"
#include "tuples/all.h"
#include "tuples/gradient_tuple.h"

using namespace tota;

namespace {

struct Cli {
  net::LiveOptions live;
  std::string inject;         // gradient name to inject, "" = none
  std::string read;           // gradient name to poll, "" = none
  std::int64_t duration_ms = 3000;
  std::int64_t read_every_ms = 250;
  std::string metrics_path;   // "" = don't write
  bool probe = false;
  // Mass-live mode (count > 1).
  int count = 1;
  bool kill_source = false;
  net::FaultPlan fault;
  std::uint64_t seed = 1;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id N [options]\n"
      "  --id N             node identity (nonzero, unique per group)\n"
      "  --port P           UDP port (default 47000)\n"
      "  --group ADDR       multicast group / broadcast address\n"
      "  --mode mcast|bcast transport mode (default mcast; bcast +\n"
      "                     group 127.255.255.255 runs on loopback)\n"
      "  --ifaddr A         multicast interface address (e.g. 127.0.0.1)\n"
      "  --inject NAME      inject a gradient field named NAME\n"
      "  --read NAME        poll + print the named gradient's hop value\n"
      "  --duration-ms D    lifetime before the FINAL line (default 3000)\n"
      "  --read-every-ms R  poll period (default 250)\n"
      "  --beacon-ms B      HELLO period (default 500)\n"
      "  --expiry-k K       missed beacons before neighbour expiry (3)\n"
      "  --metrics PATH     write the node's metrics JSON at exit\n"
      "  --probe            only test socket availability (exit 0/2)\n"
      "mass-live mode (docs/NET.md); the session settings follow from N\n"
      "(net::MassLiveOptions::for_population), so --beacon-ms and\n"
      "--expiry-k are single-node options:\n"
      "  --count N          host N nodes on one loop in this process\n"
      "  --kill-source      after convergence, crash the injecting node\n"
      "                     and require every survivor to retract\n"
      "  --seed S           base Rng seed for the mass world (default 1)\n"
      "  --drop P           rx datagram drop probability\n"
      "  --dup P            rx datagram duplication probability\n"
      "  --reorder P        rx datagram reorder probability\n"
      "  --reorder-window W reorder overtake window (enables --reorder)\n",
      argv0);
}

bool parse_cli(int argc, char** argv, Cli* cli) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if (arg == "--probe") {
      cli->probe = true;
    } else if (arg == "--id" && (v = need(i))) {
      cli->live.id = NodeId{std::strtoull(v, nullptr, 10)};
    } else if (arg == "--port" && (v = need(i))) {
      cli->live.transport.port =
          static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--group" && (v = need(i))) {
      cli->live.transport.group = v;
    } else if (arg == "--ifaddr" && (v = need(i))) {
      cli->live.transport.ifaddr = v;
    } else if (arg == "--mode" && (v = need(i))) {
      if (std::strcmp(v, "bcast") == 0) {
        cli->live.transport.mode = net::UdpOptions::Mode::kBroadcast;
      } else if (std::strcmp(v, "mcast") == 0) {
        cli->live.transport.mode = net::UdpOptions::Mode::kMulticast;
      } else {
        return false;
      }
    } else if (arg == "--inject" && (v = need(i))) {
      cli->inject = v;
    } else if (arg == "--read" && (v = need(i))) {
      cli->read = v;
    } else if (arg == "--duration-ms" && (v = need(i))) {
      cli->duration_ms = std::strtoll(v, nullptr, 10);
    } else if (arg == "--read-every-ms" && (v = need(i))) {
      cli->read_every_ms = std::strtoll(v, nullptr, 10);
    } else if (arg == "--beacon-ms" && (v = need(i))) {
      cli->live.discovery.beacon_period =
          SimTime::from_millis(std::strtod(v, nullptr));
    } else if (arg == "--expiry-k" && (v = need(i))) {
      cli->live.discovery.expiry_missed_beacons =
          static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--metrics" && (v = need(i))) {
      cli->metrics_path = v;
    } else if (arg == "--count" && (v = need(i))) {
      cli->count = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--kill-source") {
      cli->kill_source = true;
    } else if (arg == "--seed" && (v = need(i))) {
      cli->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--drop" && (v = need(i))) {
      cli->fault.drop = std::strtod(v, nullptr);
    } else if (arg == "--dup" && (v = need(i))) {
      cli->fault.duplicate = std::strtod(v, nullptr);
    } else if (arg == "--reorder" && (v = need(i))) {
      cli->fault.reorder = std::strtod(v, nullptr);
      if (cli->fault.reorder_window == 0) cli->fault.reorder_window = 4;
    } else if (arg == "--reorder-window" && (v = need(i))) {
      cli->fault.reorder_window =
          static_cast<int>(std::strtol(v, nullptr, 10));
    } else {
      return false;
    }
  }
  if (cli->count < 1) return false;
  const net::DiscoveryOptions defaults;
  if (cli->count > 1 &&
      (cli->live.discovery.beacon_period != defaults.beacon_period ||
       cli->live.discovery.expiry_missed_beacons !=
           defaults.expiry_missed_beacons)) {
    return false;  // mass mode derives both from --count
  }
  return cli->probe || cli->live.id.valid() || cli->count > 1;
}

/// The mass-live mode: N nodes, one loop, one process (docs/NET.md).
/// Exit 0 = converged (and, with --kill-source, retracted leak-free);
/// exit 1 = an invariant failed; exit 2 = sockets unavailable (skip).
int run_mass(const Cli& cli) {
  net::MassLiveOptions opts = net::MassLiveOptions::for_population(cli.count);
  opts.base_id = cli.live.id.valid() ? cli.live.id.value() : 1;
  // The CLI's address, for_population's receive buffer.
  const int rcvbuf = opts.transport.rcvbuf;
  opts.transport = cli.live.transport;
  opts.transport.rcvbuf = rcvbuf;
  opts.fault = cli.fault;
  opts.seed = cli.seed;

  net::MassLiveWorld world(opts);
  if (!world.start()) {
    std::fprintf(stderr, "tota_node: cannot open transports: %s\n",
                 world.error().c_str());
    return 2;
  }
  std::printf("MASS count=%d backend=%s port=%u\n", cli.count,
              world.loop().backend() == net::LoopBackend::kEpoll ? "epoll"
                                                                 : "poll",
              static_cast<unsigned>(opts.transport.port));
  std::fflush(stdout);

  const std::string field = cli.inject.empty() ? "mass" : cli.inject;
  world.inject_gradient(0, field);

  // Convergence = the field is BFS-exact everywhere AND the discovery
  // mesh is complete; the retraction phase needs every survivor to have
  // observed the source as a neighbour, or its death is not a topology
  // change to react to.
  const SimTime timeout =
      SimTime::from_millis(static_cast<double>(cli.duration_ms));
  const bool converged = world.run_until(
      [&] { return world.converged(field, 0) && world.mesh_complete(); },
      timeout);
  if (converged) {
    std::printf("CONVERGED t_ms=%lld nodes=%d\n",
                static_cast<long long>(world.loop().now().millis()),
                world.alive_count());
  } else {
    std::printf("CONVERGE-TIMEOUT t_ms=%lld exact=%d wrong=%d nodes=%d\n",
                static_cast<long long>(world.loop().now().millis()),
                world.bfs_exact_holders(field, 0),
                world.wrong_hop_holders(field, 0), world.alive_count());
  }
  std::fflush(stdout);

  int leaks = 0;
  if (converged && cli.kill_source) {
    std::printf("KILL id=%llu\n",
                static_cast<unsigned long long>(opts.base_id));
    std::fflush(stdout);
    world.kill(0);
    world.run_until([&] { return world.leaked(field) == 0; }, timeout);
    leaks = world.leaked(field);
    std::printf("%s t_ms=%lld leaks=%d\n",
                leaks == 0 ? "RETRACTED" : "RETRACT-TIMEOUT",
                static_cast<long long>(world.loop().now().millis()), leaks);
    std::fflush(stdout);
  }

  std::printf(
      "FINAL-MASS nodes=%d converged=%d leaks=%d rx=%lld drain_yield=%lld "
      "fault_drop=%lld compactions=%lld\n",
      world.count(), converged ? 1 : 0, leaks,
      static_cast<long long>(world.metric_sum("net.udp.rx")),
      static_cast<long long>(world.metric_sum("net.udp.drain_yield")),
      static_cast<long long>(world.metric_sum("net.fault.drop")),
      static_cast<long long>(world.metric_sum("loop.timer_compactions")));
  std::fflush(stdout);

  if (!cli.metrics_path.empty()) {
    obs::Hub merged;
    merged.metrics.merge_from(world.loop_hub().metrics);
    for (int i = 0; i < world.count(); ++i) {
      merged.metrics.merge_from(world.hub(i).metrics);
    }
    FILE* out = std::fopen(cli.metrics_path.c_str(), "w");
    if (out != nullptr) {
      const std::string doc =
          obs::bench_to_json("tota_node_mass", merged).dump(2);
      std::fwrite(doc.data(), 1, doc.size(), out);
      std::fclose(out);
    }
  }

  world.stop();
  return (converged && leaks == 0) ? 0 : 1;
}

/// "<n>" or "absent" for the named gradient's local hop value.
std::string hops_str(const Middleware& mw, const std::string& name) {
  const auto replica = mw.read_one(
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", name));
  if (replica == nullptr) return "absent";
  return std::to_string(replica->content().at("hopcount").as_int());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) {
    usage(argv[0]);
    return 1;
  }

  if (cli.count > 1 && !cli.probe) {
    std::signal(SIGPIPE, SIG_IGN);
    return run_mass(cli);
  }

  obs::Hub hub;
  net::EventLoop loop(net::LoopBackend::kAuto, &hub.metrics);
  net::LivePlatform platform(loop, cli.live, &hub);

  if (cli.probe) {
    // Socket availability check for the smoke test: exit 2 (not a
    // failure code the harness would flag) when this environment cannot
    // open the transport, so the caller can skip instead of failing.
    if (!platform.start()) {
      std::fprintf(stderr, "probe: %s\n", platform.error().c_str());
      return 2;
    }
    std::printf("probe: ok\n");
    return 0;
  }

  tuples::register_standard_tuples();
  Middleware mw(cli.live.id, platform, {}, &hub);
  platform.attach(mw);

  if (!platform.start()) {
    std::fprintf(stderr, "tota_node: cannot open transport: %s\n",
                 platform.error().c_str());
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);

  const std::string field = cli.inject.empty() ? cli.read : cli.inject;
  if (!cli.inject.empty()) {
    mw.inject(std::make_unique<tuples::GradientTuple>(cli.inject));
    std::printf("INJECT name=%s\n", cli.inject.c_str());
    std::fflush(stdout);
  }

  // Periodic poll of the gradient; self-rescheduling so it rides the
  // same timer queue as the middleware's own maintenance.
  std::function<void()> poll_read = [&] {
    if (!field.empty()) {
      std::printf("READ t_ms=%lld name=%s hops=%s\n",
                  static_cast<long long>(loop.now().millis()), field.c_str(),
                  hops_str(mw, field).c_str());
      std::fflush(stdout);
    }
    loop.schedule(SimTime::from_millis(
                      static_cast<double>(cli.read_every_ms)),
                  poll_read);
  };
  loop.schedule(SimTime::from_millis(static_cast<double>(cli.read_every_ms)),
                poll_read);

  loop.run_for(SimTime::from_millis(static_cast<double>(cli.duration_ms)));

  const auto& m = hub.metrics;
  std::printf("FINAL name=%s hops=%s neighbors=%zu up=%lld down=%lld\n",
              field.empty() ? "-" : field.c_str(),
              field.empty() ? "absent" : hops_str(mw, field).c_str(),
              platform.discovery().neighbors().size(),
              static_cast<long long>(m.get("net.neighbor.up")),
              static_cast<long long>(m.get("net.neighbor.down")));
  std::fflush(stdout);

  if (!cli.metrics_path.empty()) {
    FILE* out = std::fopen(cli.metrics_path.c_str(), "w");
    if (out != nullptr) {
      const std::string doc =
          obs::bench_to_json("tota_node_" + std::to_string(cli.live.id.value()),
                             hub)
              .dump(2);
      std::fwrite(doc.data(), 1, doc.size(), out);
      std::fclose(out);
    }
  }

  platform.stop();
  return 0;
}
