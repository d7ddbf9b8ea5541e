#include "sim_world.h"

#include "tuples/all.h"
#include "wire/frame.h"

namespace perf {

SpanKind TracingHost::kind_of(std::span<const std::uint8_t> payload) {
  const bool tuple =
      !payload.empty() &&
      payload[0] == static_cast<std::uint8_t>(tota::wire::FrameKind::kTuple);
  return tuple ? SpanKind::kEngineRx : SpanKind::kCtrlRx;
}

tota::TupleUid TracingHost::uid_of(std::span<const std::uint8_t> payload) {
  try {
    const auto frame = tota::wire::Frame::decode(payload);
    if (frame.kind != tota::wire::FrameKind::kTuple) return frame.uid;
    // Tuple header: tag (length-prefixed), origin, sequence.
    tota::wire::Reader r(frame.tuple_body);
    (void)r.span(static_cast<std::size_t>(r.uvarint()));
    const tota::NodeId origin{r.uvarint()};
    return tota::TupleUid{origin, r.uvarint()};
  } catch (const tota::wire::DecodeError&) {
    return {};
  }
}

std::uint32_t sim_shards() { return 1; }

namespace {

tota::sim::ShardedParams sim_params(const SimWorldOptions& opts) {
  tota::sim::ShardedParams p;
  p.radio.range_m = 100.0;
  p.seed = opts.seed;
  p.shards = opts.shards;
  return p;
}

}  // namespace

SimWorld::SimWorld(const SimWorldOptions& opts) {
  tota::tuples::register_standard_tuples();
  if (!opts.traced) {
    tota::emu::ShardedWorld::Options o;
    o.net = sim_params(opts);
    world_ = std::make_unique<tota::emu::ShardedWorld>(o);
    nodes_ = world_->spawn_grid(opts.side, opts.side, opts.spacing);
    world_->seal();
    return;
  }
  // The traced build mirrors ShardedWorld::spawn_grid and ::seal step for
  // step (same node order, same Rng fork order).
  sim_ = std::make_unique<tota::sim::ShardedSim>(sim_params(opts));
  {
    Span s(SpanKind::kEmuSpawn);
    nodes_.reserve(static_cast<std::size_t>(opts.side) *
                   static_cast<std::size_t>(opts.side));
    for (int r = 0; r < opts.side; ++r) {
      for (int c = 0; c < opts.side; ++c) {
        nodes_.push_back(sim_->add_node({opts.spacing * c, opts.spacing * r}));
      }
    }
  }
  Span s(SpanKind::kEmuSeal);
  sim_->seal();
  cells_.resize(nodes_.size() + 1);
  for (const tota::NodeId id : nodes_) {
    Cell& cell = cells_[id.value()];
    cell.platform = std::make_unique<tota::emu::ShardPlatform>(*sim_, id);
    cell.traced_platform = std::make_unique<TracingPlatform>(*cell.platform);
    cell.middleware = std::make_unique<tota::Middleware>(
        id, *cell.traced_platform, tota::MaintenanceOptions{},
        &sim_->shard_hub(id));
    cell.adapter = std::make_unique<tota::emu::HostAdapter>(*cell.middleware);
    cell.traced_host = std::make_unique<TracingHost>(*cell.adapter);
    sim_->attach(id, cell.traced_host.get());
  }
}

SimWorld::~SimWorld() {
  // As in ShardedWorld: node stacks go first (their engines cancel timers
  // on the simulator), then the simulator and its shard threads.
  cells_.clear();
  sim_.reset();
}

tota::Middleware& SimWorld::mw(tota::NodeId id) {
  if (world_ != nullptr) return world_->mw(id);
  return *cells_[id.value()].middleware;
}

tota::sim::ShardedSim& SimWorld::net() {
  return world_ != nullptr ? world_->net() : *sim_;
}

tota::obs::MetricsRegistry SimWorld::metrics() const {
  tota::obs::MetricsRegistry out;
  if (world_ != nullptr) {
    world_->export_metrics(out);
  } else {
    sim_->export_metrics(out);
  }
  return out;
}

}  // namespace perf
