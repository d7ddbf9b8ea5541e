#include "sim/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/logging.h"

namespace tota::sim {

namespace {

/// The minimal Platform the channel's FaultInjector needs: the event
/// queue's clock and timers plus a forked Rng.  It represents the medium
/// itself, not a node, so broadcast/position are inert.
class ChannelPlatform final : public tota::Platform {
 public:
  ChannelPlatform(EventQueue& events, Rng rng)
      : events_(events), rng_(rng) {}

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

Network::Network(NetworkParams params, obs::Hub* hub)
    : params_(params),
      owned_hub_(hub != nullptr ? nullptr : std::make_unique<obs::Hub>()),
      hub_(hub != nullptr ? *hub : *owned_hub_),
      rng_(params.seed),
      topology_(params.radio.range_m, params.wired
                                          ? Topology::Mode::kExplicit
                                          : Topology::Mode::kDisc),
      radio_(params.radio),
      radio_tx_(hub_.metrics.counter("radio.tx")),
      radio_tx_bytes_(hub_.metrics.counter("radio.tx_bytes")),
      radio_rx_(hub_.metrics.counter("radio.rx")),
      radio_lost_(hub_.metrics.counter("radio.lost")),
      link_up_(hub_.metrics.counter("link.up")),
      link_down_(hub_.metrics.counter("link.down")),
      mtu_drop_(hub_.metrics.counter("net.mtu_drop")),
      duty_drop_(hub_.metrics.counter("net.duty_drop")) {
  if (params_.batch.enabled) {
    batch_tx_ = &hub_.metrics.counter("net.batch.tx");
    batch_chunks_ = &hub_.metrics.counter("net.batch.chunks");
    batch_flush_ = &hub_.metrics.counter("net.batch.flush");
    batch_oversize_ = &hub_.metrics.counter("net.batch.oversize");
    frame_bad_ = &hub_.metrics.counter("net.frame.bad");
  }
  if (params_.fault.enabled()) {
    // The fork below is the only extra Rng draw a faulted configuration
    // makes from the network stream; a benign plan leaves the stream —
    // and therefore every committed bench baseline — untouched.
    fault_platform_ = std::make_unique<ChannelPlatform>(events_, rng_.fork());
    fault_ = std::make_unique<net::FaultInjector>(params_.fault,
                                                 *fault_platform_,
                                                 hub_.metrics);
  }
}

NodeId Network::add_node(Vec2 position,
                         std::unique_ptr<MobilityModel> mobility) {
  const NodeId id{next_node_++};
  topology_.add(id, position);
  NodeState state;
  state.mobility = std::move(mobility);
  nodes_.emplace(id, std::move(state));
  if (nodes_.at(id).mobility && !mobility_scheduled_) {
    mobility_scheduled_ = true;
    events_.schedule_after(params_.mobility_tick, [this] { mobility_tick(); });
  }
  refresh_links();
  return id;
}

void Network::attach(NodeId id, Host* host) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node id");
  it->second.host = host;
}

void Network::detach(NodeId id) {
  const auto it = nodes_.find(id);
  if (it != nodes_.end()) it->second.host = nullptr;
}

void Network::remove_node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  topology_.remove(id);
  // Neighbours observe the link loss; the departed node itself gets no
  // further upcalls.
  it->second.host = nullptr;
  it->second.neighbors.clear();
  nodes_.erase(it);
  refresh_links();
}

void Network::move_node(NodeId id, Vec2 position) {
  topology_.move(id, position);
  refresh_links();
}

void Network::connect(NodeId a, NodeId b) {
  topology_.add_link(a, b);
  refresh_links();
}

void Network::disconnect(NodeId a, NodeId b) {
  topology_.remove_link(a, b);
  refresh_links();
}

void Network::set_velocity(NodeId id, Vec2 velocity) {
  auto* model = dynamic_cast<VelocityMobility*>(mobility(id));
  if (model == nullptr) {
    throw std::invalid_argument("node has no VelocityMobility model");
  }
  model->set_velocity(velocity);
}

MobilityModel* Network::mobility(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::invalid_argument("unknown node id");
  return it->second.mobility.get();
}

void Network::set_profile(NodeId id, net::DeviceProfile profile) {
  if (nodes_.find(id) == nodes_.end()) {
    throw std::invalid_argument("unknown node id");
  }
  if (profile.is_default()) {
    profiles_.erase(id);  // keep the no-profile hot path hot
  } else {
    profiles_[id] = profile;
  }
}

const net::DeviceProfile& Network::profile(NodeId id) const {
  static const net::DeviceProfile kDefault{};
  const auto it = profiles_.find(id);
  return it == profiles_.end() ? kDefault : it->second;
}

void Network::broadcast(NodeId from, wire::Bytes payload) {
  if (!topology_.contains(from)) return;  // sender died mid-flight
  if (params_.batch.enabled) {
    enqueue_batch(from, std::move(payload));
    return;
  }
  radio_tx_.inc();
  radio_tx_bytes_.inc(static_cast<std::int64_t>(payload.size()));
  const auto receivers = topology_.neighbors(from);
  // One shared payload for all receivers of this frame.
  auto shared = std::make_shared<const wire::Bytes>(std::move(payload));
  // Device heterogeneity (net/device_profile.h).  Profile checks are
  // pure functions of time and frame size — no Rng draws — and an
  // MTU-dropped link skips the loss/latency draws entirely, so a world
  // with no profiles runs the exact pre-profile Rng stream.
  const net::DeviceProfile* sender =
      profiles_.empty() ? nullptr : &profile(from);
  for (const NodeId to : receivers) {
    if (sender != nullptr) {
      const std::size_t mtu =
          net::DeviceProfile::link_mtu(*sender, profile(to));
      if (mtu != 0 && shared->size() > mtu) {
        mtu_drop_.inc();
        continue;
      }
    }
    if (!radio_.delivered(rng_)) {
      radio_lost_.inc();
      continue;
    }
    SimTime delay = radio_.delay(rng_, shared->size());
    if (sender != nullptr) {
      if (sender->tx_delay_scale != 1.0) delay = delay * sender->tx_delay_scale;
      // The receiver's radio must be listening when the frame lands.
      if (!profile(to).awake_at(events_.now() + delay)) {
        duty_drop_.inc();
        continue;
      }
    }
    if (fault_ != nullptr) {
      // Adversity layer between the radio model and the receiver: the
      // injector may drop/hold/damage this delivery.  Damaged or
      // reordered copies get their own buffer: each surviving receiver
      // parses what *it* received.
      fault_->process(
          std::span(*shared),
          [this, from, to, delay](const wire::Bytes& bytes) {
            deliver_after(delay, from, to,
                          std::make_shared<const wire::Bytes>(bytes));
          },
          from, to);
    } else {
      deliver_after(delay, from, to, shared);
    }
  }
}

void Network::deliver_after(SimTime delay, NodeId from, NodeId to,
                            std::shared_ptr<const wire::Bytes> payload) {
  events_.schedule_after(delay,
                         [this, from, to, payload = std::move(payload)] {
                           const auto it = nodes_.find(to);
                           if (it == nodes_.end() ||
                               it->second.host == nullptr) {
                             return;
                           }
                           radio_rx_.inc();
                           it->second.host->on_datagram(from,
                                                        std::span(*payload));
                         });
}

void Network::enqueue_batch(NodeId from, wire::Bytes payload) {
  auto& pending = batch_pending_[from];
  pending.push_back(net::Datagram::chunk_data(payload));
  if (pending.size() == 1) {
    // First chunk arms the flush; a zero flush_delay still runs after
    // the current event, so everything a node emits within one event
    // instant (e.g. its reactions to one received batch) coalesces.
    events_.schedule_after(params_.batch.flush_delay,
                           [this, from] { flush_batch(from); });
  }
}

void Network::flush_batch(NodeId from) {
  const auto it = batch_pending_.find(from);
  if (it == batch_pending_.end() || it->second.empty()) return;
  auto chunks = std::exchange(it->second, {});
  if (!topology_.contains(from)) return;  // died while pending
  batch_flush_->inc();
  batch_chunks_->inc(static_cast<std::int64_t>(chunks.size()));
  auto datagrams = net::pack_batches(from, std::move(chunks), params_.batch,
                                     batch_oversize_);
  batch_tx_->inc(static_cast<std::int64_t>(datagrams.size()));
  for (auto& d : datagrams) transmit_batch(from, std::move(d));
}

void Network::transmit_batch(NodeId from, wire::Bytes datagram) {
  radio_tx_.inc();
  radio_tx_bytes_.inc(static_cast<std::int64_t>(datagram.size()));
  const auto receivers = topology_.neighbors(from);
  auto shared = std::make_shared<const wire::Bytes>(std::move(datagram));
  const net::DeviceProfile* sender =
      profiles_.empty() ? nullptr : &profile(from);
  for (const NodeId to : receivers) {
    if (sender != nullptr) {
      const std::size_t mtu =
          net::DeviceProfile::link_mtu(*sender, profile(to));
      if (mtu != 0 && shared->size() > mtu) {
        mtu_drop_.inc();  // the whole batch: coalescing raises the stakes
        continue;
      }
    }
    if (!radio_.delivered(rng_)) {
      radio_lost_.inc();
      continue;
    }
    SimTime delay = radio_.delay(rng_, shared->size());
    if (sender != nullptr) {
      if (sender->tx_delay_scale != 1.0) delay = delay * sender->tx_delay_scale;
      if (!profile(to).awake_at(events_.now() + delay)) {
        duty_drop_.inc();
        continue;
      }
    }
    if (fault_ != nullptr) {
      fault_->process(
          std::span(*shared),
          [this, from, to, delay](const wire::Bytes& bytes) {
            deliver_batch_after(delay, from, to,
                                std::make_shared<const wire::Bytes>(bytes));
          },
          from, to);
    } else {
      deliver_batch_after(delay, from, to, shared);
    }
  }
}

void Network::deliver_batch_after(
    SimTime delay, NodeId from, NodeId to,
    std::shared_ptr<const wire::Bytes> datagram) {
  events_.schedule_after(
      delay, [this, from, to, datagram = std::move(datagram)] {
        const auto it = nodes_.find(to);
        if (it == nodes_.end() || it->second.host == nullptr) return;
        radio_rx_.inc();
        net::Datagram d;
        try {
          d = net::Datagram::decode(*datagram);
        } catch (const wire::DecodeError&) {
          frame_bad_->inc();  // fault-corrupted past recognition
          return;
        }
        for (const net::Chunk& chunk : d.chunks) {
          if (chunk.kind != net::ChunkKind::kData) continue;
          it->second.host->on_datagram(from, chunk.payload);
        }
      });
}

void Network::run_until(SimTime deadline) { events_.run_until(deadline); }

std::vector<NodeId> Network::notified_neighbors(NodeId id) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return {};
  std::vector<NodeId> out(it->second.neighbors.begin(),
                          it->second.neighbors.end());
  std::sort(out.begin(), out.end());
  return out;
}

void Network::notify_link(NodeId node, NodeId neighbor, bool up) {
  events_.schedule_after(params_.link_detect_delay,
                         [this, node, neighbor, up] {
                           const auto it = nodes_.find(node);
                           if (it == nodes_.end() || it->second.host == nullptr)
                             return;
                           if (up) {
                             it->second.host->on_neighbor_up(neighbor);
                           } else {
                             it->second.host->on_neighbor_down(neighbor);
                           }
                         });
}

void Network::refresh_links() {
  // Deterministic order: sorted node ids.
  for (const NodeId id : topology_.nodes()) {
    auto& state = nodes_.at(id);
    const auto current_vec = topology_.neighbors(id);
    const std::unordered_set<NodeId> current(current_vec.begin(),
                                             current_vec.end());
    // Departed links first, then new ones, each in sorted order.
    std::vector<NodeId> downs;
    for (const NodeId old : state.neighbors) {
      if (!current.count(old)) downs.push_back(old);
    }
    std::sort(downs.begin(), downs.end());
    for (const NodeId old : downs) {
      state.neighbors.erase(old);
      link_down_.inc();
      notify_link(id, old, /*up=*/false);
    }
    for (const NodeId fresh : current_vec) {  // already sorted
      if (!state.neighbors.count(fresh)) {
        state.neighbors.insert(fresh);
        link_up_.inc();
        notify_link(id, fresh, /*up=*/true);
      }
    }
  }
  // Nodes that left the topology entirely were handled in remove_node;
  // their ids are gone from nodes_ too, but other nodes' stale references
  // to them are cleared by the loop above.
}

void Network::mobility_tick() {
  bool moved = false;
  for (const NodeId id : topology_.nodes()) {
    auto& state = nodes_.at(id);
    if (!state.mobility) continue;
    const Vec2 before = topology_.position(id);
    const Vec2 after = state.mobility->step(before, params_.mobility_tick,
                                            rng_);
    if (!(after == before)) {
      topology_.move(id, after);
      moved = true;
    }
  }
  if (moved) refresh_links();
  events_.schedule_after(params_.mobility_tick, [this] { mobility_tick(); });
}

}  // namespace tota::sim
