#include "emu/sharded_world.h"

#include <stdexcept>

#include "tuples/all.h"

namespace tota::emu {

ShardedWorld::ShardedWorld(Options options)
    : options_(options), sim_(options.net) {
  tuples::register_standard_tuples();
}

NodeId ShardedWorld::spawn(Vec2 position,
                           std::unique_ptr<sim::MobilityModel> mobility) {
  const NodeId id = sim_.add_node(position, std::move(mobility));
  if (built_) {
    build(id);
  } else {
    pending_.push_back(id);
  }
  return id;
}

std::vector<NodeId> ShardedWorld::spawn_grid(int rows, int cols,
                                             double spacing, Vec2 origin) {
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      ids.push_back(spawn({origin.x + spacing * static_cast<double>(c),
                           origin.y + spacing * static_cast<double>(r)}));
    }
  }
  return ids;
}

std::vector<NodeId> ShardedWorld::spawn_random(
    int n, Rect arena,
    const std::function<std::unique_ptr<sim::MobilityModel>(Rng&)>&
        mobility_factory) {
  Rng& rng = sim_.world_rng();
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Vec2 pos{rng.uniform(arena.min.x, arena.max.x),
                   rng.uniform(arena.min.y, arena.max.y)};
    ids.push_back(spawn(pos, mobility_factory ? mobility_factory(rng)
                                              : nullptr));
  }
  return ids;
}

void ShardedWorld::despawn(NodeId id) {
  // Unhook the host first, so the stack is torn down on a live node (its
  // destructors may still cancel timers through the platform); then the
  // simulator drops the node and cancels whatever timers remain.
  // The cell is torn down in reverse build order: the middleware's
  // engine cancels its live timers through the platform on destruction,
  // so the platform must outlive it.
  sim_.detach(id);
  if (id.value() < cells_.size()) {
    NodeCell& cell = cells_[id.value()];
    cell.adapter.reset();
    cell.middleware.reset();
    cell.platform.reset();
  }
  std::erase(pending_, id);
  sim_.remove_node(id);
}

void ShardedWorld::seal() {
  if (built_) return;
  built_ = true;
  // Partition first: each node's platform forks its owner shard's Rng
  // stream, so ownership must exist before any stack is built.  Cells
  // are built in node-id order — the fork order, and therefore every
  // node's private stream, is deterministic per (seed, shard_count).
  sim_.seal();
  for (const NodeId id : pending_) build(id);
  pending_.clear();
}

void ShardedWorld::build(NodeId id) {
  if (id.value() >= cells_.size()) cells_.resize(id.value() + 1);
  NodeCell& cell = cells_[id.value()];
  cell.platform = std::make_unique<ShardPlatform>(sim_, id);
  cell.middleware = std::make_unique<Middleware>(
      id, *cell.platform, options_.maintenance, &sim_.shard_hub(id));
  cell.adapter = std::make_unique<HostAdapter>(*cell.middleware);
  sim_.attach(id, cell.adapter.get());
}

Middleware& ShardedWorld::mw(NodeId id) {
  seal();
  if (id.value() == 0 || id.value() >= cells_.size() ||
      cells_[id.value()].middleware == nullptr) {
    throw std::invalid_argument("unknown node");
  }
  return *cells_[id.value()].middleware;
}

const Middleware& ShardedWorld::mw(NodeId id) const {
  if (!built_ || id.value() == 0 || id.value() >= cells_.size() ||
      cells_[id.value()].middleware == nullptr) {
    throw std::invalid_argument("unknown node (or world not sealed)");
  }
  return *cells_[id.value()].middleware;
}

}  // namespace tota::emu
