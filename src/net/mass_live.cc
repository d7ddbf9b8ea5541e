#include "net/mass_live.h"

#include <utility>

#include "tuples/all.h"
#include "tuples/gradient_tuple.h"

namespace tota::net {

namespace {

Pattern field_pattern(const std::string& name) {
  return Pattern::of_type(tuples::GradientTuple::kTag).eq("name", name);
}

}  // namespace

MassLiveWorld::Node::Node(EventLoop& loop, const LiveOptions& options,
                          const MaintenanceOptions& maintenance)
    : platform(loop, options, &hub),
      middleware(options.id, platform, maintenance, &hub) {
  platform.attach(middleware);
}

MassLiveWorld::MassLiveWorld(MassLiveOptions options)
    : options_(std::move(options)),
      loop_(options_.backend, &loop_hub_.metrics) {
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
  for (auto& node : nodes_) {
    if (!node->platform.start()) {
      error_ = node->platform.error();
      for (auto& started : nodes_) {
        if (started->alive) {
          started->platform.stop();
          started->alive = false;
        }
      }
      return false;
    }
    node->alive = true;
  }
  started_ = true;
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
  const Pattern p = field_pattern(name);
  int exact = 0;
  for (int i = 0; i < count(); ++i) {
    if (!nodes_[i]->alive) continue;
    const auto replica = mw(i).read_one(p);
    if (replica == nullptr) continue;
    const int want = i == source ? 0 : 1;
    if (replica->content().at("hopcount").as_int() == want) ++exact;
  }
  return exact;
}

int MassLiveWorld::wrong_hop_holders(const std::string& name,
                                     int source) const {
  const Pattern p = field_pattern(name);
  int wrong = 0;
  for (int i = 0; i < count(); ++i) {
    if (!nodes_[i]->alive) continue;
    const auto replica = mw(i).read_one(p);
    if (replica == nullptr) continue;
    const int want = i == source ? 0 : 1;
    if (replica->content().at("hopcount").as_int() != want) ++wrong;
  }
  return wrong;
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
  const Pattern p = field_pattern(name);
  int holders = 0;
  for (int i = 0; i < count(); ++i) {
    if (!nodes_[i]->alive) continue;
    if (mw(i).read_one(p) != nullptr) ++holders;
  }
  return holders;
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
