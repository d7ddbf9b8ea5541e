#include "apps/content_store.h"

namespace tota::apps {

namespace {

constexpr const char* kAnswerKeyField = "key";
constexpr const char* kAnswerFoundField = "found";

std::uint64_t fnv1a(const std::string& s, std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  // FNV concentrates short-string differences in the low bits; avalanche
  // them everywhere (SplitMix64 finalizer) before the caller keeps the
  // high bits.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

ContentStore::ContentStore(Middleware& mw, Rect keyspace)
    : mw_(mw), keyspace_(keyspace) {}

ContentStore::~ContentStore() {
  if (nav_subscription_ != 0) mw_.unsubscribe(nav_subscription_);
  if (answer_subscription_ != 0) mw_.unsubscribe(answer_subscription_);
}

Vec2 ContentStore::key_point(const std::string& key, Rect keyspace) {
  const std::uint64_t hx = fnv1a(key, 0x9E3779B97F4A7C15ull);
  const std::uint64_t hy = fnv1a(key, 0xC2B2AE3D27D4EB4Full);
  const double fx = static_cast<double>(hx >> 11) * 0x1.0p-53;
  const double fy = static_cast<double>(hy >> 11) * 0x1.0p-53;
  return {keyspace.min.x + fx * keyspace.width(),
          keyspace.min.y + fy * keyspace.height()};
}

void ContentStore::start() {
  if (started_) return;
  started_ = true;

  // Coordinate beacon: a scope-1 field; maintenance keeps neighbours'
  // copies fresh as the topology changes.
  mw_.inject(std::make_unique<tuples::GradientTuple>(kBeaconName,
                                                     /*scope=*/1));

  // Only the purposes this store serves; other navigation traffic never
  // wakes the reaction.
  Pattern navs = Pattern::of_type(tuples::NavTuple::kTag);
  navs.where("purpose", Pred::any_of({wire::Value{"put"}, wire::Value{"get"}}));
  nav_subscription_ = mw_.subscribe(
      std::move(navs),
      [this](const Event& event) {
        on_nav(static_cast<const tuples::NavTuple&>(*event.tuple));
      },
      static_cast<int>(EventKind::kTupleArrived));

  Pattern answers = Pattern::of_type(tuples::MessageTuple::kTag);
  answers.eq("receiver", mw_.self()).exists(kAnswerKeyField);
  answer_subscription_ = mw_.subscribe(
      std::move(answers),
      [this](const Event& event) {
        const auto& msg =
            static_cast<const tuples::MessageTuple&>(*event.tuple);
        const std::string key =
            msg.content().at(kAnswerKeyField).as_string();
        const auto it = pending_gets_.find(key);
        if (it == pending_gets_.end() || it->second.done) return;
        it->second.done = true;
        const bool found = msg.content().at(kAnswerFoundField).as_bool();
        it->second.callback(found ? std::optional<std::string>(msg.payload())
                                  : std::nullopt);
      },
      static_cast<int>(EventKind::kTupleArrived));
}

bool ContentStore::is_home(Vec2 target) const {
  const double mine = distance(mw_.platform().position(), target);
  Pattern beacons = Pattern::of_type(tuples::GradientTuple::kTag);
  beacons.eq("name", kBeaconName);
  const NodeId self = mw_.self();
  for (const TupleHandle& t : mw_.space().read(beacons)) {
    const auto& field = static_cast<const tuples::GradientTuple&>(*t);
    if (field.source() == self) continue;
    if (!field.content().has("origin_pos")) continue;
    if (distance(field.content().at("origin_pos").as_vec2(), target) <
        mine) {
      return false;
    }
  }
  return true;
}

void ContentStore::on_nav(const tuples::NavTuple& nav) {
  if (!is_home(nav.target())) return;
  if (!handled_navs_.insert(nav.uid()).second) return;

  if (nav.purpose() == "put") {
    // Replace any previous value for the key.
    Pattern existing = Pattern::of_type(tuples::DataTuple::kTag);
    existing.eq("key", nav.key());
    mw_.take(existing);
    mw_.inject(std::make_unique<tuples::DataTuple>(
        nav.key(), nav.content().at("value").as_string()));
    return;
  }
  if (nav.purpose() == "get") {
    Pattern lookup = Pattern::of_type(tuples::DataTuple::kTag);
    lookup.eq("key", nav.key());
    const auto record = mw_.read_one(lookup);
    // Answer descends the navigation trail strictly — never floods.
    auto answer = std::make_unique<tuples::MessageTuple>(
        nav.requester(),
        record ? static_cast<const tuples::DataTuple&>(*record).value()
               : std::string{},
        /*structure_name=*/"", /*strict=*/true);
    answer->content()
        .set(kAnswerKeyField, nav.key())
        .set(kAnswerFoundField, record != nullptr);
    mw_.inject(std::move(answer));
  }
}

void ContentStore::put(const std::string& key, std::string value) {
  start();
  auto nav = std::make_unique<tuples::NavTuple>(
      key, key_point(key, keyspace_), "put");
  nav->content().set("value", std::move(value));
  mw_.inject(std::move(nav));
}

void ContentStore::get(const std::string& key, GetCallback callback,
                       SimTime timeout) {
  start();
  pending_gets_[key] = PendingGet{std::move(callback), false};
  mw_.inject(std::make_unique<tuples::NavTuple>(
      key, key_point(key, keyspace_), "get"));
  mw_.platform().schedule(timeout, [this, key] {
    const auto it = pending_gets_.find(key);
    if (it == pending_gets_.end() || it->second.done) return;
    it->second.done = true;
    it->second.callback(std::nullopt);
  });
}

std::size_t ContentStore::stored_keys() const {
  return mw_.space().read(Pattern::of_type(tuples::DataTuple::kTag)).size();
}

}  // namespace tota::apps
