#include "sim/shard.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tota::sim {

namespace {

/// The world stream's index in the Rng::stream family: never a shard
/// index (those are 32-bit), so it is independent of the shard count.
constexpr std::uint64_t kWorldStream =
    std::numeric_limits<std::uint64_t>::max();

/// The minimal Platform a shard's FaultInjector needs: the shard queue's
/// clock and timers plus a forked Rng.  It represents the medium itself,
/// not a node, so broadcast/position are inert.
class ChannelPlatform final : public tota::Platform {
 public:
  ChannelPlatform(EventQueue& events, Rng rng) : events_(events), rng_(rng) {}

  void broadcast(wire::Bytes) override {}
  [[nodiscard]] SimTime now() const override { return events_.now(); }
  TimerId schedule(SimTime delay, std::function<void()> action) override {
    return events_.schedule_after(delay, std::move(action));
  }
  void cancel(TimerId id) override { events_.cancel(id); }
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

 private:
  EventQueue& events_;
  Rng rng_;
};

}  // namespace

ShardedSim::Shard::Shard(std::uint32_t index, std::uint32_t total,
                         std::uint64_t seed, const net::FaultPlan& fault)
    : index(index),
      rng(Rng::stream(seed, index)),
      outbox(total),
      radio_tx(hub.metrics.counter("radio.tx")),
      radio_tx_bytes(hub.metrics.counter("radio.tx_bytes")),
      radio_rx(hub.metrics.counter("radio.rx")),
      radio_lost(hub.metrics.counter("radio.lost")),
      link_up(hub.metrics.counter("link.up")),
      link_down(hub.metrics.counter("link.down")),
      mail_out(hub.metrics.counter("sim.shard.cross_deliveries")),
      mtu_drop(hub.metrics.counter("net.mtu_drop")),
      duty_drop(hub.metrics.counter("net.duty_drop")) {
  if (fault.enabled()) {
    // The only draw a faulted configuration makes from the shard stream;
    // a benign plan leaves the stream untouched.
    channel = std::make_unique<ChannelPlatform>(events, rng.fork());
    this->fault =
        std::make_unique<net::FaultInjector>(fault, *channel, hub.metrics);
  }
}

ShardedSim::ShardedSim(ShardedParams params)
    : params_(std::move(params)),
      radio_(params_.radio),
      topology_(params_.radio.range_m, params_.wired
                                           ? Topology::Mode::kExplicit
                                           : Topology::Mode::kDisc),
      world_rng_(Rng::stream(params_.seed, kWorldStream)),
      nodes_(1),  // slot 0 = the reserved invalid NodeId
      epochs_(hub_.metrics.counter("sim.shard.epochs")),
      barrier_waits_(hub_.metrics.counter("sim.shard.barrier_waits")) {
  if (params_.shards == 0) {
    throw std::invalid_argument("ShardedParams::shards must be >= 1");
  }
  if (params_.shards > 1 && params_.radio.base_delay < SimTime(1)) {
    // base_delay is the conservative lookahead; a zero bound would allow
    // a cross-shard event inside the current epoch (docs/SIM.md).
    throw std::invalid_argument(
        "sharded simulation needs radio.base_delay >= 1us "
        "(it bounds the cross-shard lookahead)");
  }
}

ShardedSim::~ShardedSim() {
  if (!workers_.empty()) {
    stop_ = true;
    epoch_start_->arrive_and_wait();  // release workers into the stop check
    for (auto& w : workers_) w.join();
  }
}

NodeId ShardedSim::add_node(Vec2 position,
                            std::unique_ptr<MobilityModel> mobility) {
  if (mobility != nullptr && !next_tick_.has_value()) {
    next_tick_ = now() + kMobilityTick;
  }
  const NodeId id{next_node_++};
  topology_.add(id, position);
  nodes_.emplace_back().mobility = std::move(mobility);
  if (sealed_) {
    state(id).owner = strip_of(position.x);
    relink(id);
  }
  return id;
}

void ShardedSim::remove_node(NodeId id) {
  if (!known(id) || !alive(id)) return;
  topology_.remove(id);
  profiles_.erase(id);
  auto& st = state(id);
  st.host = nullptr;
  st.mobility.reset();
  if (sealed_) shard_of_node(id).events.cancel_owned(id.value());
  for (const NodeId nb : st.neighbors) {
    auto& nst = state(nb);
    nst.neighbors.erase(
        std::lower_bound(nst.neighbors.begin(), nst.neighbors.end(), id));
    notify_link(nb, id, /*up=*/false);
  }
  st.neighbors.clear();
}

std::uint32_t ShardedSim::strip_of(double x) const {
  const double frac =
      strip_width_ > 0.0 ? (x - strip_min_x_) / strip_width_ : 0.0;
  if (!(frac > 0.0)) return 0;
  const auto n_shards = params_.shards;
  return std::min(n_shards - 1,
                  static_cast<std::uint32_t>(std::min(frac, 1.0) *
                                             static_cast<double>(n_shards)));
}

void ShardedSim::seal() {
  if (sealed_) return;
  sealed_ = true;

  // Partition: equal-width vertical strips of the population's bounding
  // box.  Ownership depends only on (positions, shard count), never on
  // insertion order.
  if (topology_.size() > 0) {
    const Rect box = topology_.bounding_box();
    strip_min_x_ = box.min.x;
    strip_width_ = box.width();
  }
  const auto n_shards = params_.shards;
  shards_.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(i, n_shards, params_.seed, params_.fault));
  }
  hub_.metrics.gauge("sim.shard.count").set(static_cast<double>(n_shards));

  // Owners and initial neighbour sets, then the link-up upcalls, in
  // node-id order.
  for (std::uint64_t v = 1; v < next_node_; ++v) {
    const NodeId id{v};
    if (!alive(id)) continue;  // despawned before seal()
    state(id).owner = strip_of(topology_.position(id).x);
    state(id).neighbors = topology_.neighbors(id);
  }
  for (std::uint64_t v = 1; v < next_node_; ++v) {
    const NodeId id{v};
    for (const NodeId nb : state(id).neighbors) {
      notify_link(id, nb, /*up=*/true);
    }
  }

  if (n_shards > 1) {
    epoch_start_ = std::make_unique<std::barrier<>>(n_shards + 1);
    epoch_done_ = std::make_unique<std::barrier<>>(n_shards + 1);
    workers_.reserve(n_shards);
    for (std::uint32_t i = 0; i < n_shards; ++i) {
      workers_.emplace_back([this, i] { worker(i); });
    }
  }
}

void ShardedSim::attach(NodeId id, Host* host) {
  if (!known(id) || !alive(id)) {
    throw std::invalid_argument("unknown node id");
  }
  state(id).host = host;
}

void ShardedSim::detach(NodeId id) {
  if (known(id)) state(id).host = nullptr;
}

void ShardedSim::move_node(NodeId id, Vec2 position) {
  topology_.move(id, position);
  // Before seal() links don't exist yet: a move is a plain position edit.
  if (sealed_) relink(id);
}

void ShardedSim::connect(NodeId a, NodeId b) {
  topology_.add_link(a, b);
  if (sealed_) relink(a);  // the diff updates both ends
}

void ShardedSim::disconnect(NodeId a, NodeId b) {
  topology_.remove_link(a, b);
  if (sealed_) relink(a);
}

void ShardedSim::relink(NodeId id) {
  auto& st = state(id);
  auto fresh = topology_.neighbors(id);  // sorted
  std::vector<NodeId> downs;
  std::vector<NodeId> ups;
  std::set_difference(st.neighbors.begin(), st.neighbors.end(), fresh.begin(),
                      fresh.end(), std::back_inserter(downs));
  std::set_difference(fresh.begin(), fresh.end(), st.neighbors.begin(),
                      st.neighbors.end(), std::back_inserter(ups));
  for (const NodeId nb : downs) {
    auto& nst = state(nb);
    nst.neighbors.erase(
        std::lower_bound(nst.neighbors.begin(), nst.neighbors.end(), id));
    notify_link(id, nb, /*up=*/false);
    notify_link(nb, id, /*up=*/false);
  }
  for (const NodeId nb : ups) {
    auto& nst = state(nb);
    nst.neighbors.insert(
        std::lower_bound(nst.neighbors.begin(), nst.neighbors.end(), id), id);
    notify_link(id, nb, /*up=*/true);
    notify_link(nb, id, /*up=*/true);
  }
  st.neighbors = std::move(fresh);
}

void ShardedSim::set_velocity(NodeId id, Vec2 velocity) {
  auto* model = dynamic_cast<VelocityMobility*>(mobility(id));
  if (model == nullptr) {
    throw std::invalid_argument("node has no VelocityMobility model");
  }
  model->set_velocity(velocity);
}

MobilityModel* ShardedSim::mobility(NodeId id) {
  if (!known(id)) throw std::invalid_argument("unknown node id");
  return state(id).mobility.get();
}

void ShardedSim::mobility_step() {
  // Every mobile node steps first (node-id order, one world stream);
  // links are then diffed once per moved node against the final layout.
  std::vector<NodeId> moved;
  for (std::uint64_t v = 1; v < next_node_; ++v) {
    auto& model = nodes_[v].mobility;
    if (model == nullptr) continue;
    const NodeId id{v};
    const Vec2 before = topology_.position(id);
    const Vec2 after =
        model->step(before, kMobilityTick, world_rng_);
    if (after == before) continue;
    topology_.move(id, after);
    moved.push_back(id);
  }
  for (const NodeId id : moved) relink(id);
}

void ShardedSim::set_profile(NodeId id, net::DeviceProfile profile) {
  if (!known(id)) throw std::invalid_argument("unknown node id");
  if (profile.is_default()) {
    profiles_.erase(id);
  } else {
    profiles_[id] = profile;
  }
}

const net::DeviceProfile& ShardedSim::profile(NodeId id) const {
  static const net::DeviceProfile kDefault{};
  const auto it = profiles_.find(id);
  return it == profiles_.end() ? kDefault : it->second;
}

void ShardedSim::notify_link(NodeId node, NodeId neighbor, bool up) {
  Shard& s = shard_of_node(node);
  (up ? s.link_up : s.link_down).inc();
  // Deferred, not called inline: topology updates run at quiescent
  // points, and the host hears of them as ordinary events.
  s.events.schedule_after(SimTime::zero(), [this, node, neighbor, up] {
    Host* host = state(node).host;
    if (host == nullptr) return;
    if (up) {
      host->on_neighbor_up(neighbor);
    } else {
      host->on_neighbor_down(neighbor);
    }
  });
}

std::optional<SimTime> ShardedSim::link_delay(Shard& s,
                                              const net::DeviceProfile* sender,
                                              NodeId to, std::size_t bytes) {
  // Device heterogeneity (net/device_profile.h): the MTU and duty-cycle
  // checks are pure time/size functions with no Rng draws, and an
  // MTU-dropped link skips the loss/latency draws entirely, so
  // profile-free worlds keep the exact per-shard streams.
  if (sender != nullptr) {
    const std::size_t mtu = net::DeviceProfile::link_mtu(*sender, profile(to));
    if (mtu != 0 && bytes > mtu) {
      s.mtu_drop.inc();
      return std::nullopt;
    }
  }
  if (!radio_.delivered(s.rng)) {
    s.radio_lost.inc();
    return std::nullopt;
  }
  const SimTime delay = radio_.delay(s.rng);
  if (sender != nullptr) {
    // The receiver's radio must be listening when the frame lands.
    if (!profile(to).awake_at(s.events.now() + delay)) {
      s.duty_drop.inc();
      return std::nullopt;
    }
  }
  return delay;
}

void ShardedSim::broadcast(NodeId from, wire::Bytes payload) {
  // Runs on `from`'s owner thread during epochs, or on the driver thread
  // at quiescent points (tuple injection).
  auto& st = state(from);
  Shard& s = *shards_[st.owner];
  s.radio_tx.inc();
  s.radio_tx_bytes.inc(static_cast<std::int64_t>(payload.size()));
  // One immutable buffer per transmission, shared by every receiver in
  // every shard (the reference count is atomic); each receiver decodes
  // its own span of it.
  auto shared = std::make_shared<const wire::Bytes>(std::move(payload));
  const net::DeviceProfile* sender =
      profiles_.empty() ? nullptr : &profile(from);
  for (const NodeId to : st.neighbors) {
    const auto delay = link_delay(s, sender, to, shared->size());
    if (!delay.has_value()) continue;
    if (s.fault == nullptr) {
      post(s, from, to, *delay, shared);
      continue;
    }
    // Adversity between the radio model and the receiver: the injector
    // may drop, hold or damage this delivery.  Each surviving copy gets
    // its own buffer — each receiver parses what *it* received.
    s.fault->process(
        std::span(*shared),
        [this, &s, from, to, delay = *delay](const wire::Bytes& bytes) {
          post(s, from, to, delay, std::make_shared<const wire::Bytes>(bytes));
        },
        from, to);
  }
}

void ShardedSim::post(Shard& s, NodeId from, NodeId to, SimTime delay,
                      std::shared_ptr<const wire::Bytes> payload) {
  const std::uint32_t dst = state(to).owner;
  if (dst == s.index) {
    s.events.schedule_after(delay,
                            [this, from, to, payload = std::move(payload)] {
                              deliver(from, to, *payload);
                            });
  } else {
    s.outbox[dst].push_back(
        Mail{s.events.now() + delay, from, to, std::move(payload)});
    s.mail_out.inc();
  }
}

void ShardedSim::deliver(NodeId from, NodeId to, const wire::Bytes& payload) {
  auto& st = state(to);
  if (st.host == nullptr) return;
  shards_[st.owner]->radio_rx.inc();
  st.host->on_datagram(from, std::span(payload));
}

void ShardedSim::ingest_mail() {
  for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
    auto& queue = shards_[dst]->events;
    for (auto& src : shards_) {
      auto& box = src->outbox[dst];
      for (auto& m : box) {
        queue.schedule_at(m.when, [this, m = std::move(m)] {
          deliver(m.from, m.to, *m.payload);
        });
      }
      box.clear();
    }
  }
}

EventId ShardedSim::schedule(NodeId id, SimTime delay,
                             EventQueue::Action action) {
  return shard_of_node(id).events.schedule_after(delay, std::move(action),
                                                 id.value());
}

void ShardedSim::cancel(NodeId id, EventId event) {
  shard_of_node(id).events.cancel(event);
}

SimTime ShardedSim::node_now(NodeId id) const {
  return shards_[state(id).owner]->events.now();
}

Rng& ShardedSim::shard_rng(NodeId id) { return shard_of_node(id).rng; }

obs::Hub& ShardedSim::shard_hub(NodeId id) { return shard_of_node(id).hub; }

SimTime ShardedSim::now() const {
  // All shard clocks agree at quiescent points; before seal() there is
  // no clock yet.
  return shards_.empty() ? SimTime::zero() : shards_[0]->events.now();
}

std::uint32_t ShardedSim::shard_count() const { return params_.shards; }

std::uint32_t ShardedSim::shard_of(NodeId id) const {
  if (!sealed_) throw std::logic_error("shard_of() before seal()");
  return state(id).owner;
}

const std::vector<NodeId>& ShardedSim::neighbors(NodeId id) const {
  return state(id).neighbors;
}

void ShardedSim::run_until(SimTime deadline) {
  seal();
  // Mobility moves are quiescent-point operations: run every shard to
  // the tick, move, then go on.
  while (next_tick_.has_value() && *next_tick_ <= deadline) {
    advance(*next_tick_);
    mobility_step();
    *next_tick_ += kMobilityTick;
  }
  advance(deadline);
}

void ShardedSim::advance(SimTime deadline) {
  if (shards_.size() == 1) {
    // Degenerate sequential case: one queue, no epochs, no barriers.
    ingest_mail();  // nothing crosses shards, but keep the path uniform
    shards_[0]->events.run_until(deadline);
    return;
  }
  const SimTime lookahead = params_.radio.base_delay;
  for (;;) {
    ingest_mail();
    // Epoch planning: jump straight to the earliest pending event, then
    // open a lookahead-bounded window from there.  Idle stretches cost
    // one pass instead of ceil(idle/lookahead) barriers.
    std::optional<SimTime> t_next;
    for (auto& s : shards_) {
      const auto t = s->events.next_event_time();
      if (t.has_value() && (!t_next.has_value() || *t < *t_next)) t_next = t;
    }
    if (!t_next.has_value() || *t_next > deadline) break;
    // Every event processed this epoch fires at t >= t_next, so any
    // cross-shard delivery it generates lands at t + lookahead or later
    // — strictly after epoch_end, hence never in a shard's past.
    SimTime epoch_end = *t_next + lookahead - SimTime(1);
    if (epoch_end > deadline) epoch_end = deadline;
    epoch_end_ = epoch_end;
    epochs_.inc();
    epoch_start_->arrive_and_wait();
    // ... workers run their shards to epoch_end_ ...
    epoch_done_->arrive_and_wait();
    barrier_waits_.inc(2);
  }
  // Nothing pending at or before the deadline: advance all clocks.
  for (auto& s : shards_) s->events.run_until(deadline);
}

void ShardedSim::worker(std::uint32_t index) {
  for (;;) {
    epoch_start_->arrive_and_wait();
    if (stop_) return;
    shards_[index]->events.run_until(epoch_end_);
    epoch_done_->arrive_and_wait();
  }
}

void ShardedSim::export_metrics(obs::MetricsRegistry& into) const {
  for (const auto& s : shards_) into.merge_from(s->hub.metrics);
  into.merge_from(hub_.metrics);
}

void ShardedSim::export_trace(obs::Tracer& into) const {
  std::vector<obs::Span> spans;
  for (const auto& s : shards_) {
    const auto shard_spans = s->hub.tracer.snapshot();
    spans.insert(spans.end(), shard_spans.begin(), shard_spans.end());
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const obs::Span& a, const obs::Span& b) {
                     return a.t < b.t;
                   });
  for (const obs::Span& s : spans) {
    into.record(s.t, s.node, s.stage, s.cause, s.hop);
  }
}

}  // namespace tota::sim
