#include "apps/flocking.h"

#include "tuples/field_tuple.h"

namespace tota::apps {

FlockingController::FlockingController(Middleware& mw, FlockingParams params,
                                       Steer steer)
    : mw_(mw), params_(params), steer_(std::move(steer)) {}

FlockingController::~FlockingController() { running_ = false; }

void FlockingController::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  const int scope = params_.field_scope > 0 ? params_.field_scope
                                            : tuples::FieldTuple::kUnbounded;
  mw_.inject(
      std::make_unique<tuples::FlockTuple>(params_.target_hops, scope));
  schedule_next();
}

void FlockingController::schedule_next() {
  mw_.platform().schedule(params_.control_period, [this] {
    if (!running_) return;
    control_step();
    schedule_next();
  });
}

namespace {
Pattern peer_fields(NodeId self) {
  Pattern p = Pattern::of_type(tuples::FlockTuple::kTag);
  p.where("source", Pred::ne(self));
  return p;
}
}  // namespace

std::size_t FlockingController::visible_peers() const {
  return mw_.space().read(peer_fields(mw_.self())).size();
}

void FlockingController::control_step() {
  const Vec2 here = mw_.platform().position();
  // The paper's rule acts on the *nearest* birds ("maintaining a
  // specified distance from the nearest birds"): steering against every
  // peer lets far-peer attraction cancel near-peer repulsion and the
  // flock jams short of the target spacing.
  int nearest_hop = 1 << 20;
  for (const TupleHandle& t : mw_.space().read(peer_fields(mw_.self()))) {
    const auto& field = static_cast<const tuples::FlockTuple&>(*t);
    nearest_hop = std::min(nearest_hop, field.hopcount());
  }
  Vec2 force{};
  int peers = 0;
  for (const TupleHandle& t : mw_.space().read(peer_fields(mw_.self()))) {
    const auto& field = static_cast<const tuples::FlockTuple&>(*t);
    if (field.hopcount() != nearest_hop) continue;
    if (!field.content().has("origin_pos")) continue;
    const Vec2 origin = field.content().at("origin_pos").as_vec2();
    const Vec2 toward = (origin - here).normalized();
    if (toward == Vec2{}) continue;
    // Descend the V-shaped val field: past X hops pull in, inside X push
    // out, with strength proportional to the error.
    const double err =
        static_cast<double>(field.hopcount() - params_.target_hops);
    force += toward * err;
    ++peers;
  }
  if (peers == 0) {
    steer_(Vec2{});
    return;
  }
  force = force * (1.0 / static_cast<double>(peers));
  steer_(force * params_.gain_mps);
}

}  // namespace tota::apps
