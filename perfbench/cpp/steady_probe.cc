// Steady-store probe: the receive path measured outside the world, on the
// workload's own TUPLE frames, with the store held at a fixed size.
//
// In situ, engine.rx_ns averages over a store that fills as the run goes
// and over mostly-duplicate frames; a micro-benchmark that never retires
// a uid measures an ever-growing store instead.  Here every replayed frame
// carries a uid drawn from a pool of 2k, and the oldest resident uid is
// erased before each insert, so the store holds exactly k tuples and every
// frame is a fresh store — the per-replica receive cost at that size.
#include <deque>

#include "layers.h"
#include "tota/engine.h"
#include "wire/frame.h"

namespace perf {

namespace {

/// A platform that drops what it sends and never fires a timer.
class ProbePlatform final : public tota::Platform {
 public:
  void broadcast(tota::wire::Bytes payload) override {
    sent_ += payload.size();
  }
  [[nodiscard]] tota::SimTime now() const override {
    return tota::SimTime::from_seconds(1);
  }
  TimerId schedule(tota::SimTime, std::function<void()>) override {
    return ++next_timer_;
  }
  void cancel(TimerId) override {}
  [[nodiscard]] tota::Vec2 position() const override { return {}; }
  [[nodiscard]] tota::Rng& rng() override { return rng_; }

 private:
  std::size_t sent_ = 0;
  TimerId next_timer_ = 0;
  tota::Rng rng_{7};
};

bool is_field(const tota::Tuple& t) {
  const std::string tag = t.type_tag();
  return tag == "tota.gradient" || tag == "tota.advert" ||
         tag == "tota.flock" || tag == "tota.flood";
}

/// Re-encodes the sample as `pool` TUPLE frames with distinct uids.
std::vector<tota::wire::Bytes> uid_pool(
    const std::vector<std::unique_ptr<tota::Tuple>>& tuples, std::size_t pool) {
  std::vector<tota::wire::Bytes> out;
  out.reserve(pool);
  for (std::size_t j = 0; j < pool; ++j) {
    auto t = tuples[j % tuples.size()]->clone();
    t->set_uid(tota::TupleUid{tota::NodeId{999999}, j + 1});
    t->set_hop(0);
    out.push_back(tota::wire::Frame::tuple(
        [&](tota::wire::Writer& w) { t->encode(w); }));
  }
  return out;
}

constexpr std::int64_t kProbeNs = 100'000'000;

double rx_at(const std::vector<std::unique_ptr<tota::Tuple>>& tuples,
             std::size_t resident) {
  const auto frames = uid_pool(tuples, 2 * resident);
  tota::obs::Hub hub;
  ProbePlatform platform;
  tota::TupleSpace space;
  tota::EventBus bus;
  tota::Engine engine(tota::NodeId{1}, platform, space, bus, {}, &hub);
  const tota::NodeId from{2};
  std::deque<tota::TupleUid> fifo;
  std::size_t next = 0;
  std::int64_t timed = 0;
  std::uint64_t delivered = 0;
  const auto deliver = [&](bool measure) {
    const auto& frame = frames[next];
    const tota::TupleUid uid{tota::NodeId{999999}, next + 1};
    next = (next + 1) % frames.size();
    if (space.size() >= resident && !fifo.empty()) {
      space.erase(fifo.front());
      fifo.pop_front();
    }
    const std::int64_t t0 = measure ? wall_ns() : 0;
    engine.on_datagram(from, std::span<const std::uint8_t>(frame));
    if (measure) {
      timed += wall_ns() - t0;
      ++delivered;
    }
    if (space.find(uid) != nullptr) fifo.push_back(uid);
  };
  for (std::size_t i = 0; i < frames.size(); ++i) deliver(false);
  const std::int64_t start = wall_ns();
  while (wall_ns() - start < kProbeNs) {
    for (int i = 0; i < 256; ++i) deliver(true);
  }
  return delivered > 0
             ? static_cast<double>(timed) / static_cast<double>(delivered)
             : 0.0;
}

double put_at(const std::vector<std::unique_ptr<tota::Tuple>>& tuples,
              std::size_t resident) {
  tota::TupleSpace space;
  std::deque<tota::TupleUid> fifo;
  std::uint64_t seq = 0;
  std::int64_t timed = 0;
  std::uint64_t puts = 0;
  const tota::SimTime now = tota::SimTime::from_seconds(1);
  const auto put = [&](bool measure) {
    auto t = tuples[seq % tuples.size()]->clone();
    const tota::TupleUid uid{tota::NodeId{999999}, ++seq};
    t->set_uid(uid);
    if (space.size() >= resident) {
      space.erase(fifo.front());
      fifo.pop_front();
    }
    const std::int64_t t0 = measure ? wall_ns() : 0;
    space.put(std::move(t), tota::NodeId{2}, true, now);
    if (measure) {
      timed += wall_ns() - t0;
      ++puts;
    }
    fifo.push_back(uid);
  };
  for (std::size_t i = 0; i < resident; ++i) put(false);
  const std::int64_t start = wall_ns();
  while (wall_ns() - start < kProbeNs) {
    for (int i = 0; i < 256; ++i) put(true);
  }
  return puts > 0 ? static_cast<double>(timed) / static_cast<double>(puts)
                  : 0.0;
}

}  // namespace

SteadyProbe run_steady_probe(const std::vector<tota::wire::Bytes>& frames) {
  std::vector<std::unique_ptr<tota::Tuple>> tuples;
  for (const auto& f : frames) {
    const auto frame = tota::wire::Frame::decode(f);
    if (frame.kind != tota::wire::FrameKind::kTuple) continue;
    tota::wire::Reader r(frame.tuple_body);
    auto t = tota::Tuple::decode(r);
    if (is_field(*t)) tuples.push_back(std::move(t));
  }
  SteadyProbe out;
  if (tuples.empty()) return out;
  out.rx64_ns = rx_at(tuples, 64);
  out.rx1k_ns = rx_at(tuples, 1024);
  out.put_ns = put_at(tuples, 1024);
  return out;
}

}  // namespace perf
