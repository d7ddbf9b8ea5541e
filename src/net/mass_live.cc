#include "net/mass_live.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "tuples/all.h"
#include "tuples/gradient_tuple.h"

namespace tota::net {

namespace {

/// Live nodes holding a replica of field `name` whose hop count passes
/// `keep(node, hop)`.
template <typename Keep>
int holders(const MassLiveWorld& w, const std::string& name, Keep keep) {
  const Pattern p =
      Pattern::of_type(tuples::GradientTuple::kTag).eq("name", name);
  int n = 0;
  for (int i = 0; i < w.count(); ++i) {
    if (!w.alive(i)) continue;
    const auto replica = w.mw(i).read_one(p);
    if (replica != nullptr &&
        keep(i, replica->content().at("hopcount").as_int())) {
      ++n;
    }
  }
  return n;
}

}  // namespace

MassLiveOptions MassLiveOptions::for_population(int n) {
  MassLiveOptions o;
  o.count = n;
  const std::int64_t beacon_ms =
      std::max<std::int64_t>(250, std::int64_t{n} * n / 300);
  o.discovery.beacon_period =
      SimTime::from_millis(static_cast<double>(beacon_ms));
  o.discovery.expiry_missed_beacons = 6;
  o.batch.flush_delay = SimTime::from_millis(5);
  o.digest_period = o.discovery.beacon_period * 2;
  o.reliable = true;
  o.maintenance.hold_down = o.discovery.beacon_period * 8;
  o.transport.rcvbuf = 4 << 20;
  return o;
}

MassLiveWorld::Node::Node(EventLoop& loop, const LiveOptions& options,
                          const MaintenanceOptions& maintenance)
    : platform(loop, options, &hub),
      middleware(options.id, platform, maintenance, &hub) {
  platform.attach(middleware);
}

MassLiveWorld::MassLiveWorld(MassLiveOptions options)
    : options_(std::move(options)),
      loop_(LoopBackend::kAuto, &loop_hub_.metrics) {
  nodes_.reserve(static_cast<std::size_t>(options_.count));
  for (int i = 0; i < options_.count; ++i) {
    LiveOptions live;
    static_cast<SessionOptions&>(live) = options_;
    live.id = NodeId{options_.base_id + static_cast<std::uint64_t>(i)};
    live.transport = options_.transport;
    live.fault = options_.fault;
    live.seed = options_.seed == 0
                    ? 0
                    : options_.seed + static_cast<std::uint64_t>(i);
    nodes_.push_back(
        std::make_unique<Node>(loop_, live, options_.maintenance));
  }
}

MassLiveWorld::~MassLiveWorld() { stop(); }

bool MassLiveWorld::start() {
  if (started_) return true;
  tuples::register_standard_tuples();
  started_ = true;
  for (auto& node : nodes_) {
    if (!node->platform.start()) {
      error_ = node->platform.error();
      stop();  // rolls back the nodes already started
      return false;
    }
    node->alive = true;
  }
  return true;
}

void MassLiveWorld::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& node : nodes_) {
    if (node->alive) {
      node->platform.stop();
      node->alive = false;
    }
  }
}

bool MassLiveWorld::run_until(const std::function<bool()>& done,
                              SimTime timeout, SimTime tick) {
  const SimTime deadline = loop_.now() + timeout;
  while (!done()) {
    if (loop_.now() >= deadline) return done();
    const SimTime left = deadline - loop_.now();
    loop_.run_for(left < tick ? left : tick);
  }
  return true;
}

void MassLiveWorld::inject_gradient(int i, const std::string& name) {
  mw(i).inject(std::make_unique<tuples::GradientTuple>(name));
}

void MassLiveWorld::kill(int i) {
  if (!nodes_[i]->alive) return;
  nodes_[i]->platform.stop();
  nodes_[i]->alive = false;
}

int MassLiveWorld::bfs_exact_holders(const std::string& name,
                                     int source) const {
  return holders(*this, name, [source](int i, std::int64_t hop) {
    return hop == (i == source ? 0 : 1);
  });
}

int MassLiveWorld::wrong_hop_holders(const std::string& name,
                                     int source) const {
  return holders(*this, name, [source](int i, std::int64_t hop) {
    return hop != (i == source ? 0 : 1);
  });
}

bool MassLiveWorld::converged(const std::string& name, int source) const {
  return bfs_exact_holders(name, source) == alive_count() &&
         wrong_hop_holders(name, source) == 0;
}

bool MassLiveWorld::mesh_complete() const {
  for (int i = 0; i < count(); ++i) {
    if (!nodes_[i]->alive) continue;
    const Discovery& d = nodes_[i]->platform.discovery();
    for (int j = 0; j < count(); ++j) {
      if (i == j || !nodes_[j]->alive) continue;
      if (!d.knows(NodeId{options_.base_id + static_cast<std::uint64_t>(j)})) {
        return false;
      }
    }
  }
  return true;
}

int MassLiveWorld::leaked(const std::string& name) const {
  return holders(*this, name, [](int, std::int64_t) { return true; });
}

int MassLiveWorld::alive_count() const {
  int n = 0;
  for (const auto& node : nodes_) n += node->alive ? 1 : 0;
  return n;
}

std::int64_t MassLiveWorld::metric_sum(const std::string& name) const {
  std::int64_t sum = loop_hub_.metrics.get(name);
  for (const auto& node : nodes_) sum += node->hub.metrics.get(name);
  return sum;
}

}  // namespace tota::net
