// app_query: applications reading a converged store while writes trickle
// in.  A 50×50 grid on one shard holds 1000 scope-limited gradient fields
// (tens of replicas per store); every node runs apps::SensorFusion and
// four far-apart sinks ask for the average reading within 8 hops.
//
// A round is one app tick; each set-up is followed by warm-up ticks and
// then kTicks timed ticks.  In each tick every node issues a typed
// read_one and a predicate read (patterns built once, at set-up), 2% of
// the nodes publish a new reading, and the simulator advances one 50 ms
// slice.  After the timed ticks the sinks' averages must settle on the
// ground truth after each of a few fresh waves of readings.  Every pass
// draws its own world seed, field sources and readings from the run seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/sensor_fusion.h"
#include "sim_world.h"
#include "workloads.h"

namespace perf {

namespace {

using tota::NodeId;
using tota::Pattern;
using tota::SimTime;

constexpr int kDefaultSide = 50;
constexpr int kFields = 1000;
constexpr int kFieldScope = 5;
constexpr int kSinkHops = 8;
constexpr int kWarmupTicks = 5;
constexpr int kTicks = 50;
constexpr std::size_t kPublishStride = 50;  // 2% of the nodes per tick
constexpr int kSettleWaves = 10;
constexpr int kCheckEvery = 50;  // naive-filter check on every 50th node
const SimTime kSlice = SimTime::from_millis(50);

std::string field_name(int k) {
  std::string name = "f";
  name += std::to_string(k);
  return name;
}

class AppRun {
 public:
  AppRun(const Args& args, bool traced) : args_(args), traced_(traced) {
    side_ = args.size > 0 ? args.size : kDefaultSide;
    opts_.side = side_;
    opts_.shards = sim_shards();
    opts_.traced = traced;
  }

  Result run(SimTrace* trace_out);

 private:
  NodeId node_at(int row, int col) const {
    return NodeId{static_cast<std::uint64_t>(row * side_ + col + 1)};
  }
  void build(std::uint64_t pass_seed);
  void tick(bool timed, Result& r);
  void publish(std::size_t i, double value);
  /// After the round: kSettleWaves waves of fresh readings, each followed
  /// by polling until every sink's average equals the new ground truth;
  /// returns the mean sim ms from a wave to a sink's exact answer.
  double settle_sinks(Result& r);
  void check_reads(std::size_t i, Result& r);

  const Args& args_;
  bool traced_;
  int side_ = kDefaultSide;
  SimWorldOptions opts_;

  std::unique_ptr<SimWorld> world_;
  std::vector<std::unique_ptr<tota::apps::SensorFusion>> apps_;
  std::vector<Pattern> typed_;      // per node: its nearest field, by name
  std::vector<Pattern> predicate_;  // per node: fields within 2 hops
  std::vector<double> readings_;    // per node: last published value
  std::vector<std::size_t> sinks_;
  std::uint64_t rng_ = 0;
  int tick_no_ = 0;
  std::vector<double> latencies_ms_;
};

void AppRun::build(std::uint64_t pass_seed) {
  opts_.seed = mix_seed(pass_seed, 3) % 1000000 + 1;
  world_ = std::make_unique<SimWorld>(opts_);
  const auto& nodes = world_->nodes();
  const std::size_t n = nodes.size();
  world_->run_for(SimTime::from_millis(500));
  rng_ = mix_seed(pass_seed, 4);
  tick_no_ = 0;

  // Scope-limited fields from seeded sources; each node's typed read asks
  // for the field whose source is nearest to it.
  std::vector<std::size_t> field_source(kFields);
  for (int k = 0; k < kFields; ++k) {
    rng_ = mix_seed(rng_, 11);
    field_source[k] = rng_ % n;
    world_->mw(nodes[field_source[k]])
        .inject(std::make_unique<tota::tuples::GradientTuple>(
            field_name(k), kFieldScope));
  }
  typed_.clear();
  predicate_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const int row = static_cast<int>(i) / side_;
    const int col = static_cast<int>(i) % side_;
    int best = 0;
    int best_d = 1 << 30;
    for (int k = 0; k < kFields; ++k) {
      const int s = static_cast<int>(field_source[k]);
      const int d = std::abs(s / side_ - row) + std::abs(s % side_ - col);
      if (d < best_d) {
        best_d = d;
        best = k;
      }
    }
    typed_.push_back(
        Pattern::of_type(tota::tuples::GradientTuple::kTag)
            .eq("name", field_name(best)));
    Pattern near = Pattern::of_type(tota::tuples::GradientTuple::kTag);
    near.where("hopcount", tota::Pred::le(2));
    predicate_.push_back(std::move(near));
  }

  // Sensor fusion everywhere; four sinks far enough apart (> 2 × 8 hops)
  // that each node belongs to at most one fusion tree.
  apps_.clear();
  readings_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    apps_.push_back(
        std::make_unique<tota::apps::SensorFusion>(world_->mw(nodes[i])));
    rng_ = mix_seed(rng_, 13);
    publish(i, 15.0 + static_cast<double>(rng_ % 1000) / 100.0);
  }
  const int q1 = side_ / 4;
  const int q3 = side_ - 1 - side_ / 4;
  sinks_ = {static_cast<std::size_t>(node_at(q1, q1).value() - 1),
            static_cast<std::size_t>(node_at(q1, q3).value() - 1),
            static_cast<std::size_t>(node_at(q3, q1).value() - 1),
            static_cast<std::size_t>(node_at(q3, q3).value() - 1)};
  for (const std::size_t s : sinks_) apps_[s]->query_average(kSinkHops);
  world_->run_for(SimTime::from_seconds(3));
}

void AppRun::publish(std::size_t i, double value) {
  readings_[i] = value;
  Span s(SpanKind::kAggPublish);
  apps_[i]->publish_reading(value);
}

void AppRun::tick(bool timed, Result& r) {
  const auto& nodes = world_->nodes();
  const std::size_t n = nodes.size();
  for (std::size_t i = 0; i < n; ++i) {
    tota::Middleware& mw = world_->mw(nodes[i]);
    const std::int64_t t0 = wall_ns();
    {
      Span s(SpanKind::kReadOne);
      const auto one = mw.read_one(typed_[i]);
      r.check(one != nullptr);
    }
    const std::int64_t t1 = wall_ns();
    {
      Span s(SpanKind::kPredRead);
      const auto many = mw.read(predicate_[i]);
      r.check(!many.empty());
    }
    const std::int64_t t2 = wall_ns();
    if (timed) {
      latencies_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
      latencies_ms_.push_back(static_cast<double>(t2 - t1) * 1e-6);
    }
  }
  // A rotating 2% of the nodes publish a new reading.
  for (std::size_t i = static_cast<std::size_t>(tick_no_) % kPublishStride;
       i < n; i += kPublishStride) {
    rng_ = mix_seed(rng_, 17);
    publish(i, 15.0 + static_cast<double>(rng_ % 1000) / 100.0);
    r.check(true);
  }
  world_->run_for(kSlice);
  ++tick_no_;
}

void AppRun::check_reads(std::size_t i, Result& r) {
  const tota::Middleware& mw = world_->mw(world_->nodes()[i]);
  // Naive filter over the whole store, in uid order.
  std::vector<tota::TupleUid> typed_naive;
  std::vector<tota::TupleUid> pred_naive;
  mw.space().for_each([&](const tota::TupleSpace::Entry& e) {
    if (typed_[i].matches(*e.tuple)) typed_naive.push_back(e.tuple->uid());
    if (predicate_[i].matches(*e.tuple)) pred_naive.push_back(e.tuple->uid());
  });
  const auto one = mw.read_one(typed_[i]);
  r.check(typed_naive.empty() ? one == nullptr
                              : one != nullptr &&
                                    one->uid() == typed_naive.front());
  const auto many = mw.read(predicate_[i]);
  bool same = many.size() == pred_naive.size();
  for (std::size_t k = 0; same && k < many.size(); ++k) {
    same = many[k]->uid() == pred_naive[k];
  }
  r.check(same);
}

double AppRun::settle_sinks(Result& r) {
  const auto& nodes = world_->nodes();
  const auto& topo = world_->net().topology();
  std::vector<std::vector<std::size_t>> in_range;
  for (const std::size_t s : sinks_) {
    const auto dist = topo.hop_distances(nodes[s]);
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto it = dist.find(nodes[i]);
      if (it != dist.end() && it->second <= kSinkHops) members.push_back(i);
    }
    in_range.push_back(std::move(members));
  }
  double sum = 0.0;
  int samples = 0;
  for (int wave = 0; wave < kSettleWaves; ++wave) {
    for (std::size_t i = static_cast<std::size_t>(tick_no_ + wave) %
                         kPublishStride;
         i < nodes.size(); i += kPublishStride) {
      rng_ = mix_seed(rng_, 19);
      publish(i, 15.0 + static_cast<double>(rng_ % 1000) / 100.0);
    }
    std::vector<double> truth;
    for (const auto& members : in_range) {
      double total = 0.0;
      for (const std::size_t i : members) total += readings_[i];
      truth.push_back(total / static_cast<double>(members.size()));
    }
    // Each sink's first instant (0.1 ms polls) at the new ground truth.
    const SimTime start = world_->net().now();
    std::vector<double> settled(sinks_.size(), -1.0);
    for (;;) {
      bool all = true;
      for (std::size_t k = 0; k < sinks_.size(); ++k) {
        if (settled[k] >= 0.0) continue;
        const auto avg = apps_[sinks_[k]]->average();
        if (avg && std::abs(*avg - truth[k]) <= 1e-9 * std::abs(truth[k])) {
          settled[k] = (world_->net().now() - start).millis();
        } else {
          all = false;
        }
      }
      if (all || world_->net().now() - start > SimTime::from_seconds(5)) {
        break;
      }
      world_->run_for(SimTime(100));
    }
    for (const double ms : settled) {
      if (r.check(ms >= 0.0)) {
        sum += ms;
        ++samples;
      }
    }
  }
  return samples > 0 ? sum / samples : 0.0;
}

Result AppRun::run(SimTrace* trace_out) {
  Result r;
  std::vector<double> setup_s, tick_ms, tick_cpu_ms, converge;
  Counts counts;
  double timed_s = 0.0;
  std::size_t nodes = 0;
  for (int pass = 0; !budget_spent(args_, pass, timed_s, 3); ++pass) {
    if (traced_) trace::reset();
    next_cpu();
    const std::int64_t t_setup = wall_ns();
    build(mix_seed(args_.seed, 100 + static_cast<std::uint64_t>(pass)));
    for (int t = 0; t < kWarmupTicks; ++t) tick(false, r);
    setup_s.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
    if (traced_) {
      accumulate(trace_out->setup, trace::snapshot());
      ++trace_out->setups;
      trace::reset();
    }
    nodes = world_->nodes().size();

    const Counts before = counts_of(world_->metrics());
    for (int t = 0; t < kTicks; ++t) {
      next_cpu();
      const std::int64_t c0 = cpu_ns();
      const std::int64_t w0 = wall_ns();
      tick(true, r);
      const double wall_s = static_cast<double>(wall_ns() - w0) * 1e-9;
      tick_cpu_ms.push_back(static_cast<double>(cpu_ns() - c0) * 1e-6);
      tick_ms.push_back(wall_s * 1e3);
      timed_s += wall_s;
      if (traced_) trace_out->wall_s += wall_s;
    }
    if (traced_) {
      accumulate(trace_out->timed, trace::snapshot());
      trace_out->frames = trace::captured_frames();
      trace_out->rounds += kTicks;
    }
    add_delta(counts, counts_of(world_->metrics()), before);

    for (std::size_t i = 0; i < nodes; i += kCheckEvery) check_reads(i, r);
    if (traced_) {
      std::size_t resident = 0;
      for (const NodeId id : world_->nodes()) {
        resident += world_->mw(id).space().size();
      }
      trace_out->resident_per_node =
          static_cast<double>(resident) / static_cast<double>(nodes);
    }
    converge.push_back(settle_sinks(r));
    apps_.clear();
    world_.reset();
  }
  const double per_node_round =
      static_cast<double>(nodes) * static_cast<double>(tick_ms.size());
  std::fprintf(stderr, "app_query: %zu ticks, median %.3f ms wall\n",
               tick_ms.size(), median(tick_ms));
  r.set("setup_s", median(setup_s), "s");
  r.set("cpu_ms_per_round", median(tick_cpu_ms), "ms");
  r.set("converge_ms", median(converge), "ms");
  r.set("latency_p50_ms", quantile(latencies_ms_, 0.5), "ms");
  r.set("latency_p99_ms", quantile(latencies_ms_, 0.99), "ms");
  r.set("tx_per_node",
        static_cast<double>(get(counts, "radio.tx")) / per_node_round,
        "frames");
  r.set("bytes_per_node",
        static_cast<double>(get(counts, "radio.tx_bytes")) / per_node_round,
        "B");
  r.set("rss_mb", peak_rss_mb(), "MB");
  r.counts = deterministic_counts(counts);
  if (trace_out != nullptr) trace_out->counts = counts;
  return r;
}

}  // namespace

Result run_app_query(const Args& args, SimTrace* trace_out) {
  return AppRun(args, trace_out != nullptr).run(trace_out);
}

}  // namespace perf
