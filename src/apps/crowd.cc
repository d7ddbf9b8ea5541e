#include "apps/crowd.h"

namespace tota::apps {

CrowdNavigator::CrowdNavigator(Middleware& mw, CrowdNavParams params,
                               Steer steer)
    : mw_(mw), params_(std::move(params)), steer_(std::move(steer)) {}

CrowdNavigator::~CrowdNavigator() { running_ = false; }

void CrowdNavigator::start() {
  if (started_) return;
  started_ = true;
  running_ = true;
  // Presence: a short field around the visitor; maintenance drags it
  // along as the visitor walks.
  mw_.inject(std::make_unique<tuples::GradientTuple>(
      kPresenceField, params_.avoid_radius_hops));
  schedule_next();
}

void CrowdNavigator::schedule_next() {
  mw_.platform().schedule(params_.control_period, [this] {
    if (!running_) return;
    control_step();
    schedule_next();
  });
}

std::optional<int> CrowdNavigator::destination_hops() const {
  Pattern dest;
  dest.eq("name", params_.destination).exists("hopcount");
  const auto field = mw_.space().read(dest);
  if (field.empty()) return std::nullopt;
  int best = 1 << 20;
  for (const TupleHandle& t : field) {
    best = std::min(best,
                    static_cast<int>(t->content().at("hopcount").as_int()));
  }
  return best;
}

int CrowdNavigator::crowd_nearby() const {
  // The whole question is a predicate: other visitors' presence fields
  // reading within the avoidance radius.
  Pattern presence = Pattern::of_type(tuples::GradientTuple::kTag);
  presence.eq("name", kPresenceField)
      .where("source", Pred::ne(mw_.self()))
      .where("hopcount", Pred::le(params_.avoid_radius_hops));
  return static_cast<int>(mw_.space().read(presence).size());
}

bool CrowdNavigator::arrived() const {
  const auto d = destination_hops();
  return d && *d <= params_.arrive_hops;
}

void CrowdNavigator::control_step() {
  if (arrived()) {
    steer_(Vec2{});
    return;
  }
  const Vec2 here = mw_.platform().position();
  Vec2 force{};

  // Attraction: descend the destination field (toward its origin).
  Pattern dest;
  dest.eq("name", params_.destination).exists("hopcount");
  for (const TupleHandle& t : mw_.space().read(dest)) {
    if (!t->content().has("origin_pos")) continue;
    const Vec2 toward =
        (t->content().at("origin_pos").as_vec2() - here).normalized();
    force += toward;
    break;  // one destination field suffices
  }

  // Repulsion: climb out of nearby visitors' presence fields, harder the
  // closer they read.
  Pattern presence = Pattern::of_type(tuples::GradientTuple::kTag);
  presence.eq("name", kPresenceField)
      .where("source", Pred::ne(mw_.self()))
      .where("hopcount", Pred::le(params_.avoid_radius_hops))
      .exists("origin_pos");
  for (const TupleHandle& t : mw_.space().read(presence)) {
    const auto& field = static_cast<const tuples::GradientTuple&>(*t);
    const int hops = field.hopcount();
    const Vec2 away =
        (here - field.content().at("origin_pos").as_vec2()).normalized();
    const double weight =
        params_.repulsion *
        static_cast<double>(params_.avoid_radius_hops - hops + 1) /
        static_cast<double>(params_.avoid_radius_hops + 1);
    force += away * weight;
  }

  steer_(force * params_.gain_mps);
}

TupleUid CrowdDensity::measure(int within_hops, SimTime half_life) {
  // Count each visitor exactly once: only the replica at the visitor's
  // own node reads hopcount 0.
  Pattern visitors = Pattern::of_type(tuples::GradientTuple::kTag);
  visitors.eq("name", CrowdNavigator::kPresenceField)
      .where("hopcount", Pred::eq(0));
  auto census = std::make_unique<tuples::AggregationTuple>(
      kDensityField, tuples::AggOp::kCount, within_hops);
  census->matching(visitors);
  if (half_life.micros() > 0) census->with_half_life(half_life);
  return agg_.ask(std::move(census));
}

}  // namespace tota::apps
