// LIVE — the real-socket runtime priced end to end (docs/NET.md
// "EventLoop backends & multi-tenant hosting").
//
// Two sections, each an acceptance number for the multi-tenant loop:
//
//   (1) readiness backend throughput: 512 registered pipe fds, 8 ready
//       per round — the mass-live steady state, where nearly every
//       socket is idle between beacons.  poll(2) pays O(all fds) per
//       wakeup (scan + kernel copy), epoll pays O(ready); at this fd
//       count epoll must dispatch at least as fast as poll;
//   (2) mass convergence: a MassLiveWorld (default 120 nodes, override
//       TOTA_BENCH_LIVE_NODES) on one loop — real UDP sockets on
//       loopback — must converge an injected gradient to BFS-exact hop
//       counts, then retract it leak-free when the source dies.
//
// Wall-clock gauges (*_ms, *_per_sec, *_vs_*) vary run to run and are
// --ignore'd by the CI determinism check; the invariant gauges (fd and
// node counts, converged/bfs_exact/leaks) are load-bearing and must
// reproduce bit-for-bit.  Section 2 degrades gracefully where loopback
// UDP is unavailable: bench.live.mass.sockets records 0 and the mass
// gauges are skipped (compare with --ignore 'bench\.live\.mass' there).
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp_common.h"
#include "net/event_loop.h"
#include "net/mass_live.h"
#include "obs/hub.h"

using namespace tota;

namespace {

obs::Gauge& result(const std::string& name) {
  return obs::default_hub().metrics.gauge("bench.live." + name);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- section 1: poll vs epoll dispatch throughput ------------------------

constexpr int kPipes = 512;
constexpr int kActivePerRound = 8;
constexpr int kRounds = 2000;

/// Events dispatched per second by `backend` with kPipes registered fds
/// and kActivePerRound made ready per round.
double loop_events_per_sec(net::LoopBackend backend) {
  net::EventLoop loop(backend);
  std::vector<int> rd(kPipes), wr(kPipes);
  int dispatched = 0;
  int round_target = 0;
  for (int i = 0; i < kPipes; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) {
      std::perror("pipe");
      std::exit(1);
    }
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    rd[i] = fds[0];
    wr[i] = fds[1];
    loop.add_fd(fds[0], [&loop, &dispatched, &round_target, fd = fds[0]] {
      char byte;
      while (::read(fd, &byte, 1) == 1) {
      }
      if (++dispatched >= round_target) loop.stop();
    });
  }

  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kActivePerRound; ++k) {
      const int i = (round * kActivePerRound + k) % kPipes;
      const char byte = 1;
      (void)!::write(wr[i], &byte, 1);
    }
    round_target = dispatched + kActivePerRound;
    loop.run();  // callbacks stop() once the round's events dispatched
  }
  const double elapsed = seconds_since(start);

  for (int i = 0; i < kPipes; ++i) {
    loop.remove_fd(rd[i]);
    ::close(rd[i]);
    ::close(wr[i]);
  }
  return static_cast<double>(kRounds) * kActivePerRound / elapsed;
}

void section_loop() {
  exp::section("loop backend dispatch (512 fds, 8 ready/round)");
  const double poll_eps = loop_events_per_sec(net::LoopBackend::kPoll);
  std::printf("%-8s %12.0f events/s\n", "poll", poll_eps);
  result("loop.fds").set(kPipes);
  result("loop.rounds").set(kRounds);
  result("loop.poll_events_per_sec").set(poll_eps);
#if TOTA_HAVE_EPOLL
  const double epoll_eps = loop_events_per_sec(net::LoopBackend::kEpoll);
  std::printf("%-8s %12.0f events/s\n", "epoll", epoll_eps);
  result("loop.epoll_events_per_sec").set(epoll_eps);
  result("loop.epoll_vs_poll").set(epoll_eps / poll_eps);
  std::printf(
      "expected shape: epoll >= poll here — poll re-scans all %d\n"
      "registrations per wakeup, epoll touches only the %d ready.\n",
      kPipes, kActivePerRound);
#endif
}

// --- section 2: mass convergence on real sockets -------------------------

void section_mass() {
  const char* env = std::getenv("TOTA_BENCH_LIVE_NODES");
  const int nodes = env != nullptr ? std::atoi(env) : 120;
  exp::section("mass-live convergence (" + std::to_string(nodes) +
               " real-socket nodes, one loop)");

  net::MassLiveOptions opts = net::MassLiveOptions::for_population(nodes);
  opts.transport.mode = net::UdpOptions::Mode::kBroadcast;
  opts.transport.group = "127.255.255.255";
  // PID-derived port: parallel bench runs on one host must not share a
  // channel (same convention as scripts/smoke_net.sh).
  opts.transport.port =
      static_cast<std::uint16_t>(53000 + ::getpid() % 10000);
  opts.seed = 7;

  net::MassLiveWorld world(opts);
  if (!world.start()) {
    std::printf("loopback UDP unavailable (%s); skipping mass section\n",
                world.error().c_str());
    result("mass.sockets").set(0);
    return;
  }
  result("mass.sockets").set(1);

  const auto start = std::chrono::steady_clock::now();
  world.inject_gradient(0, "bench");
  const bool converged = world.run_until(
      [&] { return world.converged("bench", 0) && world.mesh_complete(); },
      SimTime::from_seconds(60));
  const double converge_s = seconds_since(start);
  const int bfs_exact = world.bfs_exact_holders("bench", 0);

  world.kill(0);
  const auto kill_at = std::chrono::steady_clock::now();
  world.run_until([&] { return world.leaked("bench") == 0; },
                  SimTime::from_seconds(60));
  const double retract_s = seconds_since(kill_at);
  const int leaks = world.leaked("bench");

  std::printf("%-8s %-10s %-10s %-12s %-12s %-10s\n", "nodes", "converged",
              "bfs_exact", "converge_ms", "retract_ms", "leaks");
  std::printf("%-8d %-10d %-10d %-12.0f %-12.0f %-10d\n", nodes,
              converged ? 1 : 0, bfs_exact, converge_s * 1e3,
              retract_s * 1e3, leaks);

  result("mass.nodes").set(nodes);
  result("mass.converged").set(converged ? 1 : 0);
  result("mass.bfs_exact").set(bfs_exact);
  result("mass.leaks").set(leaks);
  result("mass.convergence_ms").set(converge_s * 1e3);
  result("mass.retract_ms").set(retract_s * 1e3);
  result("mass.nodes_per_sec").set(nodes / converge_s);
  std::printf(
      "expected shape: converged=1, bfs_exact=%d, leaks=0 — every layer\n"
      "below main() is the production stack; only the process count is\n"
      "collapsed.\n",
      nodes);
  world.stop();
}

}  // namespace

int main() {
  section_loop();
  section_mass();
  exp::emit_json("live");
  return 0;
}
