#include "apps/meeting.h"

namespace tota::apps {

MeetingAgent::MeetingAgent(Middleware& mw, MeetingParams params, Steer steer)
    : mw_(mw), params_(std::move(params)), steer_(std::move(steer)) {}

MeetingAgent::~MeetingAgent() { running_ = false; }

void MeetingAgent::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  auto field = std::make_unique<tuples::GradientTuple>(params_.meeting_name,
                                                       params_.field_scope);
  mw_.inject(std::move(field));
  schedule_next();
}

void MeetingAgent::schedule_next() {
  mw_.platform().schedule(params_.control_period, [this] {
    if (!running_) return;
    control_step();
    schedule_next();
  });
}

Pattern MeetingAgent::peer_fields() const {
  Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  p.eq("name", params_.meeting_name);
  p.where("source", Pred::ne(mw_.self()));
  return p;
}

bool MeetingAgent::arrived() const {
  const auto peers = mw_.space().read(peer_fields());
  if (peers.empty()) return false;
  for (const TupleHandle& t : peers) {
    const auto& field = static_cast<const tuples::GradientTuple&>(*t);
    if (field.hopcount() > params_.arrive_hops) return false;
  }
  return true;
}

void MeetingAgent::control_step() {
  if (arrived()) {
    steer_(Vec2{});
    return;
  }
  const Vec2 here = mw_.platform().position();
  Vec2 force{};
  int peers = 0;
  for (const TupleHandle& t : mw_.space().read(peer_fields())) {
    const auto& field = static_cast<const tuples::GradientTuple&>(*t);
    if (!field.content().has("origin_pos")) continue;
    const Vec2 origin = field.content().at("origin_pos").as_vec2();
    const Vec2 toward = (origin - here).normalized();
    if (toward == Vec2{}) continue;
    // Descend the summed fields: weight by how far away the peer reads.
    force += toward * static_cast<double>(field.hopcount());
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
