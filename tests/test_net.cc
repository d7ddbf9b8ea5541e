// Unit tests for the live-network runtime (src/net): the datagram
// envelope, the discovery state machine (against the FakePlatform's
// controllable clock/timers/Rng — no sockets), the real-time EventLoop,
// and an in-process two-node LivePlatform integration run over loopback
// UDP (skipped where sockets are unavailable).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "decoded_batch.h"
#include "fake_platform.h"
#include "net/datagram.h"
#include "net/discovery.h"
#include "net/event_loop.h"
#include "net/live_platform.h"
#include "net/mass_live.h"
#include "obs_expect.h"
#include "tota/middleware.h"
#include "tuples/all.h"
#include "tuples/gradient_tuple.h"

namespace tota::net {
namespace {

using tota::testing::decode_batch;
using tota::testing::DecodedBatch;
using tota::testing::FakePlatform;
using tota::testing::recorded;

// --- datagram envelope ----------------------------------------------------

TEST(Datagram, RejectsGarbage) {
  // Wrong magic (foreign traffic on our port).
  EXPECT_THROW(decode_batch(wire::Bytes{0x00, 0x01, 0x01, 0x07}),
               wire::DecodeError);
  // Wrong version.
  EXPECT_THROW(decode_batch(wire::Bytes{kMagic, 0x63, 0x01, 0x07}),
               wire::DecodeError);
  // Unknown kind.
  EXPECT_THROW(decode_batch(wire::Bytes{kMagic, kVersion, 0x09, 0x07}),
               wire::DecodeError);
  // Truncated.
  EXPECT_THROW(decode_batch(wire::Bytes{kMagic, kVersion}),
               wire::DecodeError);
  EXPECT_THROW(decode_batch(wire::Bytes{}), wire::DecodeError);
  // A BATCH must not have trailing bytes.
  const EncodedChunk hello =
      Datagram::chunk_hello(1, SimTime::from_millis(100));
  auto batch = Datagram::batch(NodeId{1}, {&hello, 1});
  batch.push_back(0x00);
  EXPECT_THROW(decode_batch(batch), wire::DecodeError);
  // Sender id 0 is reserved as invalid.
  EXPECT_THROW(decode_batch(wire::Bytes{kMagic, kVersion, 0x03, 0x00}),
               wire::DecodeError);
}

// --- discovery state machine ----------------------------------------------

constexpr SimTime kPeriod = SimTime::from_millis(100);

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest() {
    DiscoveryOptions opts;
    opts.beacon_period = kPeriod;
    opts.expiry_missed_beacons = 3;
    discovery_ = std::make_unique<Discovery>(
        NodeId{1}, platform_, opts,
        [this](std::uint64_t seq, SimTime period) {
          // One HELLO chunk per datagram, so the wire-shape assertions
          // below see each beacon on its own.
          const EncodedChunk hello = Datagram::chunk_hello(seq, period);
          sent_.push_back(Datagram::batch(NodeId{1}, {&hello, 1}));
          send_times_.push_back(platform_.now());
        },
        metrics_);
    discovery_->on_neighbor_up([this](NodeId n) { ups_.push_back(n); });
    discovery_->on_neighbor_down([this](NodeId n) { downs_.push_back(n); });
  }

  void hear(NodeId from, std::uint64_t seq = 0) {
    discovery_->on_hello(from, seq, kPeriod);
  }

  FakePlatform platform_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Discovery> discovery_;
  std::vector<wire::Bytes> sent_;
  std::vector<SimTime> send_times_;
  std::vector<NodeId> ups_;
  std::vector<NodeId> downs_;
};

TEST_F(DiscoveryTest, FirstHelloIsOneUpRepeatsAreNone) {
  discovery_->start();
  hear(NodeId{2}, 0);
  hear(NodeId{2}, 1);
  hear(NodeId{2}, 2);
  EXPECT_EQ(ups_, std::vector<NodeId>{NodeId{2}});
  EXPECT_TRUE(downs_.empty());
  EXPECT_TRUE(discovery_->knows(NodeId{2}));
  EXPECT_EQ(metrics_.get("net.neighbor.up"), recorded(1));
  EXPECT_EQ(metrics_.get("net.hello.rx"), recorded(3));
}

TEST_F(DiscoveryTest, OwnEchoedBeaconIsIgnored) {
  discovery_->start();
  hear(NodeId{1});  // the medium echoes our own HELLO back
  EXPECT_TRUE(ups_.empty());
  EXPECT_FALSE(discovery_->knows(NodeId{1}));
}

TEST_F(DiscoveryTest, ExpiryDeadlineIsKMissedBeaconsWithJitterMargin) {
  discovery_->start();
  hear(NodeId{2});
  // k=3 beacons at period 100ms, each allowed 20% late: 360ms.
  const SimTime expect =
      platform_.time + SimTime::from_millis(100.0 * 3 * 1.2);
  ASSERT_FALSE(platform_.scheduled.empty());
  EXPECT_EQ(platform_.scheduled.back().when, expect);
}

TEST_F(DiscoveryTest, NeighborExpiresAfterMissedBeacons) {
  discovery_->start();
  hear(NodeId{2});
  // No more HELLOs: running the pending timers reaches the expiry.
  platform_.run_scheduled();
  EXPECT_EQ(downs_, std::vector<NodeId>{NodeId{2}});
  EXPECT_FALSE(discovery_->knows(NodeId{2}));
  EXPECT_EQ(metrics_.get("net.neighbor.down"), recorded(1));
}

TEST_F(DiscoveryTest, SteadyBeaconsNeverExpire) {
  discovery_->start();
  hear(NodeId{2}, 0);
  // Each fresh HELLO must push the expiry out: simulate five on-time
  // beacons; the neighbour stays present throughout.
  for (std::uint64_t s = 1; s <= 5; ++s) {
    platform_.time += kPeriod;
    hear(NodeId{2}, s);
  }
  EXPECT_EQ(ups_.size(), 1u);
  EXPECT_TRUE(downs_.empty());
  // Exactly one expiry timer is pending among the scheduled actions
  // (plus the beacon chain's next timer).
  std::size_t live = platform_.pending_scheduled();
  EXPECT_EQ(live, 2u);  // one live expiry + one pending beacon
}

TEST_F(DiscoveryTest, SteadyHellosScheduleOneExpiryTimerAndCancelNone) {
  discovery_->start();
  const std::size_t beacon_timers = platform_.scheduled.size();
  for (std::uint64_t s = 0; s < 50; ++s) {
    hear(NodeId{2}, s);
    platform_.time += kPeriod;
  }
  const SimTime last_hello = platform_.time - kPeriod;
  // One expiry timer for the neighbour's whole life so far, and every
  // scheduled action still live: no HELLO cancelled or re-created one.
  EXPECT_EQ(platform_.scheduled.size(), beacon_timers + 1);
  EXPECT_EQ(platform_.pending_scheduled(), platform_.scheduled.size());

  // That timer fires long before the deadline the last HELLO set, so it
  // re-arms itself for exactly the rest: k late-as-allowed beacons after
  // the last HELLO, the instant a cancel-and-reschedule would have used.
  platform_.run_scheduled();
  EXPECT_TRUE(downs_.empty());
  const SimTime deadline = last_hello + SimTime::from_millis(100.0 * 3 * 1.2);
  const auto rearmed = std::find_if(
      platform_.scheduled.begin(), platform_.scheduled.end(),
      [&](const auto& a) { return a.when == deadline; });
  EXPECT_NE(rearmed, platform_.scheduled.end());
  // Silence from here on: it expires at that instant.
  while (downs_.empty() && !platform_.scheduled.empty()) {
    platform_.run_scheduled();
  }
  EXPECT_EQ(downs_, std::vector<NodeId>{NodeId{2}});
}

TEST_F(DiscoveryTest, FlapEmitsExactlyOneDownAndOneUp) {
  discovery_->start();
  hear(NodeId{2});
  platform_.run_scheduled();  // expire: one down
  ASSERT_EQ(downs_.size(), 1u);
  hear(NodeId{2}, 7);  // the node is heard again
  EXPECT_EQ(ups_.size(), 2u);   // initial + re-appearance
  EXPECT_EQ(downs_.size(), 1u); // no extra downs
  EXPECT_TRUE(discovery_->knows(NodeId{2}));
}

TEST_F(DiscoveryTest, BeaconScheduleIsDeterministicUnderSeededRng) {
  // Two discoveries over identically-seeded platforms (FakePlatform
  // seeds its Rng with a fixed constant) must emit beacons at identical
  // jittered instants.
  discovery_->start();
  for (int i = 0; i < 6; ++i) platform_.run_scheduled();

  FakePlatform platform2;
  obs::MetricsRegistry metrics2;
  std::vector<SimTime> times2;
  DiscoveryOptions opts;
  opts.beacon_period = kPeriod;
  Discovery d2(
      NodeId{1}, platform2, opts,
      [&](std::uint64_t, SimTime) { times2.push_back(platform2.now()); },
      metrics2);
  d2.start();
  for (int i = 0; i < 6; ++i) platform2.run_scheduled();

  ASSERT_EQ(send_times_.size(), times2.size());
  EXPECT_EQ(send_times_, times2);
  // And the jitter is real: consecutive gaps are not all the nominal
  // period.
  bool jittered = false;
  for (std::size_t i = 1; i < send_times_.size(); ++i) {
    if (send_times_[i] - send_times_[i - 1] != kPeriod) jittered = true;
  }
  EXPECT_TRUE(jittered);
}

TEST_F(DiscoveryTest, BeaconIntervalStaysWithinJitterBounds) {
  discovery_->start();
  for (int i = 0; i < 8; ++i) platform_.run_scheduled();
  ASSERT_GE(send_times_.size(), 2u);
  for (std::size_t i = 1; i < send_times_.size(); ++i) {
    const SimTime gap = send_times_[i] - send_times_[i - 1];
    EXPECT_GE(gap, kPeriod * 0.8);
    EXPECT_LE(gap, kPeriod * 1.2);
  }
}

TEST_F(DiscoveryTest, StopCancelsTimersAndForgetsSilently) {
  discovery_->start();
  hear(NodeId{2});
  hear(NodeId{3});
  EXPECT_EQ(ups_.size(), 2u);
  discovery_->stop();
  EXPECT_EQ(platform_.pending_scheduled(), 0u);
  platform_.run_scheduled();
  EXPECT_TRUE(downs_.empty());  // shutdown is not a link failure
  EXPECT_TRUE(discovery_->neighbors().empty());
}

TEST_F(DiscoveryTest, StaleReorderedHelloDoesNotRefreshExpiry) {
  discovery_->start();
  hear(NodeId{2}, 10);
  const std::size_t scheduled_before = platform_.scheduled.size();
  // A reordered old beacon (UDP and the fault injector both produce
  // these): it carries stale information and must not re-arm expiry.
  hear(NodeId{2}, 8);
  EXPECT_EQ(platform_.scheduled.size(), scheduled_before);
  EXPECT_EQ(metrics_.get("net.hello.stale"), recorded(1));
  EXPECT_EQ(ups_.size(), 1u);
  EXPECT_TRUE(downs_.empty());
}

TEST_F(DiscoveryTest, DuplicateHelloIsStale) {
  discovery_->start();
  hear(NodeId{2}, 5);
  hear(NodeId{2}, 5);  // the medium duplicated the datagram
  EXPECT_EQ(metrics_.get("net.hello.stale"), recorded(1));
  EXPECT_EQ(ups_.size(), 1u);
  EXPECT_TRUE(discovery_->knows(NodeId{2}));
}

TEST_F(DiscoveryTest, SeqRegressionBeyondWindowIsRestart) {
  discovery_->start();
  hear(NodeId{2}, 100);
  // Far below the stale window: the peer rebooted and beacons from zero.
  hear(NodeId{2}, 0);
  EXPECT_EQ(metrics_.get("net.hello.restart"), recorded(1));
  EXPECT_EQ(metrics_.get("net.hello.stale"), 0);
  EXPECT_EQ(downs_, std::vector<NodeId>{NodeId{2}});  // old session down
  EXPECT_EQ(ups_.size(), 2u);                         // ...and re-announced
  EXPECT_TRUE(discovery_->knows(NodeId{2}));
}

TEST_F(DiscoveryTest, RestartSessionContinuesAtNewSeq) {
  discovery_->start();
  hear(NodeId{2}, 100);
  hear(NodeId{2}, 0);  // restart
  hear(NodeId{2}, 1);  // the new session's next beacon is not stale
  EXPECT_EQ(metrics_.get("net.hello.stale"), 0);
  EXPECT_EQ(ups_.size(), 2u);
  EXPECT_EQ(downs_.size(), 1u);
}

TEST_F(DiscoveryTest, AdvertisedPeriodIsClamped) {
  discovery_->start();
  // A hostile/corrupt HELLO advertising a one-hour beacon period must
  // not pin the neighbour entry: Discovery::kMaxPeerPeriod (5s) caps
  // the armed expiry at 5s * 3 missed * 1.2 jitter = 18s.
  discovery_->on_hello(NodeId{2}, 0, SimTime::from_seconds(3600));
  EXPECT_EQ(metrics_.get("net.hello.clamped"), recorded(1));
  ASSERT_FALSE(platform_.scheduled.empty());
  EXPECT_EQ(platform_.scheduled.back().when,
            platform_.time + SimTime::from_seconds(18));
}

TEST_F(DiscoveryTest, HellosCarryIncreasingSeqAndAdvertisedPeriod) {
  discovery_->start();
  platform_.run_scheduled();
  ASSERT_GE(sent_.size(), 2u);
  const DecodedBatch first = decode_batch(sent_[0]);
  const DecodedBatch second = decode_batch(sent_[1]);
  EXPECT_EQ(first.sender, NodeId{1});
  ASSERT_EQ(first.chunks.size(), 1u);
  ASSERT_EQ(second.chunks.size(), 1u);
  EXPECT_EQ(first.chunks[0].kind, ChunkKind::kHello);
  EXPECT_EQ(first.chunks[0].seq + 1, second.chunks[0].seq);
  EXPECT_EQ(first.chunks[0].period, kPeriod);
}

// --- event loop -----------------------------------------------------------

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(SimTime::from_millis(20), [&] { order.push_back(2); });
  loop.schedule(SimTime::from_millis(5), [&] { order.push_back(1); });
  loop.schedule(SimTime::from_millis(40), [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  const auto id =
      loop.schedule(SimTime::from_millis(5), [&] { fired = true; });
  loop.cancel(id);
  EXPECT_EQ(loop.pending_timers(), 0u);
  loop.run_for(SimTime::from_millis(15));
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunForReturnsAtDeadline) {
  EventLoop loop;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    loop.schedule(SimTime::from_millis(10), tick);
  };
  loop.schedule(SimTime::from_millis(10), tick);
  loop.run_for(SimTime::from_millis(100));
  EXPECT_GE(ticks, 5);
  EXPECT_LE(ticks, 12);
}

TEST(EventLoop, FdReadinessDeliversCallback) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop;
  std::string got;
  loop.add_fd(fds[0], [&] {
    char buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) got.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  loop.schedule(SimTime::from_millis(5),
                [&] { ASSERT_EQ(::write(fds[1], "ping", 4), 4); });
  loop.run_for(SimTime::from_millis(500));
  EXPECT_EQ(got, "ping");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, StopsWhenNothingToWaitFor) {
  EventLoop loop;
  loop.run();  // no fds, no timers: must return, not hang
  SUCCEED();
}

TEST(EventLoop, ReusedFdNumberDoesNotInheritStaleReadiness) {
  // Two pipes readable in the same poll round.  The first callback
  // (dispatch is ascending-fd) removes and closes the second pipe, then
  // opens a fresh one — POSIX hands back the lowest free descriptor, so
  // the new pipe *reuses the removed fd number* — and registers it.  The
  // old pipe's pending POLLIN must not be delivered to the new
  // registration: nothing has ever been written to the new pipe.
  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  ASSERT_LT(a[0], b[0]);

  EventLoop loop;
  int reused_fires = 0;
  int c0 = -1, c1 = -1;
  loop.add_fd(a[0], [&] {
    char buf[8];
    ASSERT_EQ(::read(a[0], buf, sizeof(buf)), 1);
    loop.remove_fd(b[0]);
    ::close(b[0]);
    ::close(b[1]);
    int c[2];
    ASSERT_EQ(::pipe(c), 0);
    c0 = c[0];
    c1 = c[1];
    ASSERT_EQ(c0, b[0]) << "lowest-free-fd reuse is POSIX-guaranteed";
    loop.add_fd(c0, [&] {
      char t[8];
      (void)::read(c0, t, sizeof(t));
      ++reused_fires;
    });
  });
  loop.add_fd(b[0], [&] { FAIL() << "removed registration fired"; });

  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  loop.run_for(SimTime::from_millis(30));
  EXPECT_EQ(reused_fires, 0) << "stale revents leaked into the reused fd";

  // The new registration is genuinely live once its own data arrives.
  ASSERT_GT(c1, 0);
  ASSERT_EQ(::write(c1, "z", 1), 1);
  loop.run_for(SimTime::from_millis(30));
  EXPECT_EQ(reused_fires, 1);

  loop.remove_fd(a[0]);
  loop.remove_fd(c0);
  ::close(a[0]);
  ::close(a[1]);
  ::close(c0);
  ::close(c1);
}

TEST(EventLoop, StopBeforeRunIsStickyAndConsumedOnce) {
  // Regression: a stop() requested while the loop was not running (a
  // start-up failure path, or a callback racing shutdown) used to be
  // silently lost — the next run() would hang until its first event.
  EventLoop loop;
  loop.stop();
  bool fired = false;
  loop.schedule(SimTime::from_millis(2), [&] { fired = true; });
  loop.run();  // must return immediately on the pending stop
  EXPECT_FALSE(fired);

  // The pending stop was consumed exactly once: the next run_for is a
  // normal run, not another immediate return.
  loop.run_for(SimTime::from_millis(30));
  EXPECT_TRUE(fired);
}

TEST(EventLoop, CancelledTimerTombstonesAreCompacted) {
  // Regression: cancel() only tombstoned the heap entry, so a periodic
  // cancel+reschedule pattern (discovery expiry re-arms do exactly
  // this) grew the heap without bound over the process lifetime.
  EventLoop loop;
  const auto never = SimTime::from_seconds(3600);
  std::vector<EventLoop::TimerId> ids;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      ids.push_back(loop.schedule(never, [] {}));
    }
    for (const auto id : ids) loop.cancel(id);
    ids.clear();
    // The bound documented on timer_entries(): tombstones never
    // outnumber live timers by more than the compaction slack.
    ASSERT_LE(loop.timer_entries(), 2 * loop.pending_timers() + 64);
  }
  EXPECT_EQ(loop.pending_timers(), 0u);
  EXPECT_LE(loop.timer_entries(), 64u);
}

// --- backend-parametrized loop behaviour ------------------------------------

// Every behavioural contract must hold identically on both readiness
// backends — mass-live picks epoll, other platforms poll, and the
// engine above must not be able to tell.
class LoopBackendTest : public ::testing::TestWithParam<LoopBackend> {};

TEST_P(LoopBackendTest, TimersFireInDeadlineOrder) {
  EventLoop loop(GetParam());
  std::vector<int> order;
  loop.schedule(SimTime::from_millis(20), [&] { order.push_back(2); });
  loop.schedule(SimTime::from_millis(5), [&] { order.push_back(1); });
  loop.schedule(SimTime::from_millis(40), [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(LoopBackendTest, SameInstantTimersFireInScheduleOrder) {
  // FIFO among equal deadlines is part of the timer contract (the sim
  // EventQueue guarantees it); both backends share the heap, but the
  // parity is what multi-backend CI actually pins.
  EventLoop loop(GetParam());
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.schedule(SimTime::from_millis(5), [&order, i] {
      order.push_back(i);
    });
  }
  loop.run_for(SimTime::from_millis(40));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_P(LoopBackendTest, FdReadinessDeliversCallback) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop(GetParam());
  std::string got;
  loop.add_fd(fds[0], [&] {
    char buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) got.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  loop.schedule(SimTime::from_millis(5),
                [&] { ASSERT_EQ(::write(fds[1], "ping", 4), 4); });
  loop.run_for(SimTime::from_millis(500));
  EXPECT_EQ(got, "ping");
  loop.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(LoopBackendTest, ReusedFdNumberDoesNotInheritStaleReadiness) {
  // The generation-stamp contract, on both backends: a callback of the
  // current dispatch round removes+closes another registered fd, a
  // fresh pipe reuses its number, and the stale readiness must not be
  // delivered to the new registration.
  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  ASSERT_LT(a[0], b[0]);

  EventLoop loop(GetParam());
  int reused_fires = 0;
  int c0 = -1, c1 = -1;
  loop.add_fd(a[0], [&] {
    char buf[8];
    ASSERT_EQ(::read(a[0], buf, sizeof(buf)), 1);
    loop.remove_fd(b[0]);
    ::close(b[0]);
    ::close(b[1]);
    int c[2];
    ASSERT_EQ(::pipe(c), 0);
    c0 = c[0];
    c1 = c[1];
    ASSERT_EQ(c0, b[0]) << "lowest-free-fd reuse is POSIX-guaranteed";
    loop.add_fd(c0, [&] {
      char t[8];
      (void)::read(c0, t, sizeof(t));
      ++reused_fires;
    });
  });
  loop.add_fd(b[0], [&] { FAIL() << "removed registration fired"; });

  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "y", 1), 1);
  loop.run_for(SimTime::from_millis(30));
  EXPECT_EQ(reused_fires, 0) << "stale readiness leaked into the reused fd";

  ASSERT_GT(c1, 0);
  ASSERT_EQ(::write(c1, "z", 1), 1);
  loop.run_for(SimTime::from_millis(30));
  EXPECT_EQ(reused_fires, 1);

  loop.remove_fd(a[0]);
  loop.remove_fd(c0);
  ::close(a[0]);
  ::close(a[1]);
  ::close(c0);
  ::close(c1);
}

#if TOTA_HAVE_EPOLL
INSTANTIATE_TEST_SUITE_P(Backends, LoopBackendTest,
                         ::testing::Values(LoopBackend::kPoll,
                                           LoopBackend::kEpoll),
                         [](const auto& info) {
                           return info.param == LoopBackend::kEpoll
                                      ? "epoll"
                                      : "poll";
                         });
#else
INSTANTIATE_TEST_SUITE_P(Backends, LoopBackendTest,
                         ::testing::Values(LoopBackend::kPoll),
                         [](const auto&) { return std::string("poll"); });
#endif

// --- udp transport error accounting ----------------------------------------

TEST(UdpTransport, RealReceiveErrorIsCountedNotMasked) {
  obs::MetricsRegistry metrics;
  UdpOptions opts;
  opts.mode = UdpOptions::Mode::kBroadcast;
  opts.group = "127.255.255.255";
  opts.port = static_cast<std::uint16_t>(40000 + ((::getpid() + 97) % 20000));
  UdpTransport transport(opts, metrics);
  if (!transport.open()) {
    GTEST_SKIP() << "UDP unavailable here: " << transport.error();
  }

  // A cleanly drained empty queue (EAGAIN) is weather, not an error.
  EXPECT_EQ(transport.drain([](std::span<const std::uint8_t>) {}), 0u);
  EXPECT_EQ(metrics.get("net.udp.rx_err"), 0);
  EXPECT_TRUE(transport.error().empty());

  // Sabotage the descriptor behind the transport's back: recv now fails
  // with a real error (EBADF), which must be counted and recorded
  // instead of being silently treated as a drained queue.
  ::close(transport.fd());
  EXPECT_EQ(transport.drain([](std::span<const std::uint8_t>) {}), 0u);
  EXPECT_EQ(metrics.get("net.udp.rx_err"), recorded(1));
  EXPECT_NE(transport.error().find("recv"), std::string::npos);
}

TEST(UdpTransport, DrainBudgetYieldsInsteadOfStarving) {
  // Regression: drain() looped until EAGAIN, so one flooded socket on a
  // multi-tenant loop starved every other tenant's socket and all due
  // timers.  A budget caps one drain; level-triggered readiness re-arms
  // the rest for the next wakeup.
  obs::MetricsRegistry metrics;
  UdpOptions opts;
  opts.mode = UdpOptions::Mode::kBroadcast;
  opts.group = "127.255.255.255";
  opts.port = static_cast<std::uint16_t>(40000 + ((::getpid() + 193) % 20000));
  opts.drain_budget = 4;
  UdpTransport transport(opts, metrics);
  if (!transport.open()) {
    GTEST_SKIP() << "UDP unavailable here: " << transport.error();
  }

  // The broadcast medium echoes: our own sends land in our own queue.
  const wire::Bytes datagram = {0x10, 0x20, 0x30};
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(transport.send(datagram));

  // Let loopback delivery finish before draining (it is effectively
  // synchronous on Linux, but the contract does not promise that), so
  // the first drain faces the whole 6-datagram backlog at once.
  ::usleep(20000);

  const std::size_t first =
      transport.drain([](std::span<const std::uint8_t>) {});
  ASSERT_EQ(first, 4u) << "drain must stop at the budget";
  EXPECT_EQ(metrics.get("net.udp.drain_yield"), recorded(1));

  std::size_t rest = 0;
  for (int tries = 0; tries < 100 && rest < 2; ++tries) {
    rest += transport.drain([](std::span<const std::uint8_t>) {});
    if (rest < 2) ::usleep(2000);
  }
  EXPECT_EQ(rest, 2u) << "the remainder surfaces on the next drain";
}

// --- two live nodes over loopback UDP -------------------------------------

// Both platforms share one EventLoop and one process, but talk through
// real sockets: this is the smallest end-to-end proof that the engine
// runs unmodified over the live transport.  Skipped (not failed) in
// sandboxes without UDP.
TEST(LivePlatform, GradientCrossesRealSockets) {
  tuples::register_standard_tuples();
  const std::uint16_t port =
      static_cast<std::uint16_t>(40000 + (::getpid() % 20000));

  EventLoop loop;
  auto make_options = [&](std::uint64_t id) {
    LiveOptions o;
    o.id = NodeId{id};
    o.transport.mode = UdpOptions::Mode::kBroadcast;
    o.transport.group = "127.255.255.255";
    o.transport.port = port;
    o.discovery.beacon_period = SimTime::from_millis(30);
    return o;
  };

  obs::Hub hub_a, hub_b;
  LivePlatform pa(loop, make_options(1), &hub_a);
  LivePlatform pb(loop, make_options(2), &hub_b);
  Middleware ma(NodeId{1}, pa, {}, &hub_a);
  Middleware mb(NodeId{2}, pb, {}, &hub_b);
  pa.attach(ma);
  pb.attach(mb);

  if (!pa.start() || !pb.start()) {
    GTEST_SKIP() << "UDP unavailable here: " << pa.error() << pb.error();
  }

  ma.inject(std::make_unique<tuples::GradientTuple>("live-field"));
  const Pattern p =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", "live-field");

  // Poll until node 2 holds the replica (or a generous deadline).
  TupleHandle replica;
  for (int i = 0; i < 40 && replica == nullptr; ++i) {
    loop.run_for(SimTime::from_millis(50));
    replica = mb.read_one(p);
  }
  ASSERT_NE(replica, nullptr) << "gradient never crossed the socket";
  EXPECT_EQ(replica->content().at("hopcount").as_int(), 1);
  EXPECT_EQ(hub_b.metrics.get("net.neighbor.up"), recorded(1));
  // The medium echoes; each node must have dropped its own frames.
  EXPECT_GE(hub_a.metrics.get("net.data.echo"), recorded(1));

  pa.stop();
  pb.stop();
}

// --- mass-live: N nodes on one multi-tenant loop ---------------------------

MassLiveOptions mass_options(int count, std::uint16_t port_salt) {
  MassLiveOptions o;
  o.count = count;
  o.transport.mode = UdpOptions::Mode::kBroadcast;
  o.transport.group = "127.255.255.255";
  o.transport.port =
      static_cast<std::uint16_t>(40000 + ((::getpid() + port_salt) % 20000));
  o.transport.rcvbuf = 4 << 20;
  o.discovery.beacon_period = SimTime::from_millis(40);
  o.discovery.expiry_missed_beacons = 6;
  o.batch.flush_delay = SimTime::from_millis(2);
  o.digest_period = SimTime::from_millis(80);
  o.reliable = true;
  o.maintenance.hold_down = SimTime::from_millis(400);
  o.seed = 7;
  return o;
}

// One formula for the mass-live settings: the beacon period grows as
// N²/300 ms above a 250 ms floor, everything else follows the beacon.
TEST(MassLive, ForPopulationScalesTheBeaconWithTheSquareOfN) {
  const std::pair<int, double> cases[] = {
      {60, 250}, {120, 250}, {300, 300}, {1000, 3333}};
  for (const auto& [n, beacon_ms] : cases) {
    SCOPED_TRACE(n);
    const MassLiveOptions o = MassLiveOptions::for_population(n);
    EXPECT_EQ(o.count, n);
    EXPECT_EQ(o.discovery.beacon_period, SimTime::from_millis(beacon_ms));
    EXPECT_EQ(o.discovery.expiry_missed_beacons, 6);
    EXPECT_EQ(o.batch.flush_delay, SimTime::from_millis(5));
    EXPECT_EQ(o.digest_period, o.discovery.beacon_period * 2);
    EXPECT_TRUE(o.reliable);
    EXPECT_EQ(o.maintenance.hold_down, o.discovery.beacon_period * 8);
    EXPECT_EQ(o.transport.rcvbuf, 4 << 20);
  }
}

// The live_mass benchmark workload spells its 60-node settings out by
// hand (perfbench/cpp/live_mass.cc, live_options); this is a copy of
// them.  for_population(60) must agree with it field for field.
TEST(MassLive, ForPopulationAtSixtyMatchesTheLiveMassWorkload) {
  MassLiveOptions hand;
  hand.count = 60;
  hand.transport.mode = UdpOptions::Mode::kBroadcast;
  hand.transport.group = "127.255.255.255";
  hand.transport.port = 20000;
  hand.transport.rcvbuf = 4 << 20;
  hand.discovery.beacon_period = SimTime::from_millis(250);
  hand.discovery.expiry_missed_beacons = 6;
  hand.batch.enabled = true;
  hand.batch.flush_delay = SimTime::from_millis(5);
  hand.digest_period = SimTime::from_millis(500);
  hand.reliable = true;
  hand.maintenance.hold_down = SimTime::from_millis(2000);
  hand.seed = 11;

  MassLiveOptions o = MassLiveOptions::for_population(60);
  o.transport.mode = UdpOptions::Mode::kBroadcast;
  o.transport.group = "127.255.255.255";
  o.transport.port = 20000;
  o.seed = 11;

  EXPECT_EQ(o.count, hand.count);
  EXPECT_EQ(o.base_id, hand.base_id);
  EXPECT_EQ(o.seed, hand.seed);
  EXPECT_EQ(o.transport.mode, hand.transport.mode);
  EXPECT_EQ(o.transport.group, hand.transport.group);
  EXPECT_EQ(o.transport.port, hand.transport.port);
  EXPECT_EQ(o.transport.ifaddr, hand.transport.ifaddr);
  EXPECT_EQ(o.transport.ttl, hand.transport.ttl);
  EXPECT_EQ(o.transport.drain_budget, hand.transport.drain_budget);
  EXPECT_EQ(o.transport.rcvbuf, hand.transport.rcvbuf);
  EXPECT_EQ(o.fault.enabled(), hand.fault.enabled());
  EXPECT_EQ(o.discovery.beacon_period, hand.discovery.beacon_period);
  EXPECT_EQ(o.discovery.expiry_missed_beacons,
            hand.discovery.expiry_missed_beacons);
  EXPECT_EQ(o.batch.enabled, hand.batch.enabled);
  EXPECT_EQ(o.batch.mtu, hand.batch.mtu);
  EXPECT_EQ(o.batch.max_chunks, hand.batch.max_chunks);
  EXPECT_EQ(o.batch.flush_delay, hand.batch.flush_delay);
  EXPECT_EQ(o.reliable, hand.reliable);
  EXPECT_EQ(o.digest_period, hand.digest_period);
  EXPECT_EQ(o.digest_buckets, hand.digest_buckets);
  EXPECT_EQ(o.maintenance.repropagate_on_link_up,
            hand.maintenance.repropagate_on_link_up);
  EXPECT_EQ(o.maintenance.retract_on_link_down,
            hand.maintenance.retract_on_link_down);
  EXPECT_EQ(o.maintenance.hold_down, hand.maintenance.hold_down);
}

// The smoke_net.sh topology, in-process: three complete nodes on one
// loop must behave exactly like three processes — converge the gradient
// BFS-exact, observe the source's death, retract leak-free.
TEST(MassLive, TrioConvergesKillsAndRetracts) {
  MassLiveWorld world(mass_options(3, 389));
  if (!world.start()) {
    GTEST_SKIP() << "UDP unavailable here: " << world.error();
  }
  world.inject_gradient(0, "trio");

  ASSERT_TRUE(world.run_until(
      [&] { return world.converged("trio", 0) && world.mesh_complete(); },
      SimTime::from_seconds(10)))
      << "exact=" << world.bfs_exact_holders("trio", 0)
      << " wrong=" << world.wrong_hop_holders("trio", 0);
  EXPECT_EQ(world.bfs_exact_holders("trio", 0), 3);
  EXPECT_EQ(world.wrong_hop_holders("trio", 0), 0);

  world.kill(0);
  ASSERT_TRUE(world.run_until([&] { return world.leaked("trio") == 0; },
                              SimTime::from_seconds(10)))
      << world.leaked("trio") << " orphaned replicas leaked";
  // Both survivors observed the departure as a real topology change.
  EXPECT_GE(world.metric_sum("net.neighbor.down"), recorded(2));
  world.stop();
}

// A dozen nodes under FaultInjector chaos on every receive path: the
// soak shape of scripts/mass_live.sh at unit-test scale.  Also pins the
// timer-heap tombstone bound under real churn — discovery expiry
// re-arms are exactly the cancel+reschedule pattern that used to grow
// the heap without bound.
TEST(MassLive, ChaosSoakConvergesLeakFreeWithBoundedTimerHeap) {
  MassLiveOptions opts = mass_options(12, 617);
  opts.fault.drop = 0.1;
  opts.fault.duplicate = 0.05;
  opts.fault.reorder = 0.05;
  opts.fault.reorder_window = 4;
  MassLiveWorld world(opts);
  if (!world.start()) {
    GTEST_SKIP() << "UDP unavailable here: " << world.error();
  }
  world.inject_gradient(0, "soak");

  ASSERT_TRUE(world.run_until(
      [&] { return world.converged("soak", 0) && world.mesh_complete(); },
      SimTime::from_seconds(20)))
      << "exact=" << world.bfs_exact_holders("soak", 0)
      << " wrong=" << world.wrong_hop_holders("soak", 0);
  EXPECT_GE(world.metric_sum("net.fault.drop"), recorded(1))
      << "chaos was configured but never bit";

  world.kill(0);
  ASSERT_TRUE(world.run_until([&] { return world.leaked("soak") == 0; },
                              SimTime::from_seconds(20)))
      << world.leaked("soak") << " orphaned replicas leaked";

  // The documented tombstone bound held through all the expiry re-arm
  // churn of the whole soak.
  EXPECT_LE(world.loop().timer_entries(),
            2 * world.loop().pending_timers() + 64);
  world.stop();
}

// N platforms on one loop must be observationally equivalent to N
// processes: per-node hubs stay fully isolated while the shared loop
// carries every tenant's sockets and timers.
TEST(MassLive, TenantsShareTheLoopButNotTheirMetrics) {
  MassLiveWorld world(mass_options(4, 811));
  if (!world.start()) {
    GTEST_SKIP() << "UDP unavailable here: " << world.error();
  }
  // One socket per tenant, all registered with the one loop.
  EXPECT_EQ(world.loop().registered_fds(), 4u);

  world.inject_gradient(2, "iso");
  ASSERT_TRUE(world.run_until([&] { return world.converged("iso", 2); },
                              SimTime::from_seconds(10)));

  // Injection is visible only in the injecting node's hub; every node
  // counted its own traffic in its own hub.
  EXPECT_EQ(world.hub(2).metrics.get("engine.inject"), recorded(1));
  for (int i = 0; i < 4; ++i) {
    if (i != 2) {
      EXPECT_EQ(world.hub(i).metrics.get("engine.inject"), 0);
    }
    EXPECT_GE(world.hub(i).metrics.get("net.udp.rx"), recorded(1));
  }
  // The loop's own accounting lands in the loop hub, not any tenant's.
  EXPECT_GE(world.loop_hub().metrics.get("loop.fd_events"), recorded(1));
  EXPECT_EQ(world.hub(0).metrics.get("loop.fd_events"), 0);
  world.stop();
}

}  // namespace
}  // namespace tota::net
