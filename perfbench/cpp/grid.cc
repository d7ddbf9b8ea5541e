// grid_flood and grid_churn: a 2.5k-node degree-4 grid on one shard
// carrying ten network-wide structures of four tuple types.
//
// grid_flood times the structures' flood from injection until the radio
// is quiet — the receive pipeline's workload.  grid_churn builds the same
// structures during set-up and times rotating cohorts of teleporting
// nodes (link flaps) until every structure is repaired — the
// self-maintenance workload, and the paper's deferred repair delay.
//
// A round is one flood (grid_flood) or one flap (grid_churn).  Each pass
// builds a fresh world and times its rounds.  The geometry (sources,
// cohorts) is the same for every seed; the run seed derives one world
// seed per pass (the radio's jitter and loss stream), so a run averages
// over several realisations and its figures move little between seeds.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "sim_world.h"
#include "workloads.h"
#include "tuples/all.h"

namespace perf {

namespace {

using tota::NodeId;
using tota::SimTime;
using tota::TupleUid;

constexpr int kDefaultSide = 50;
constexpr int kStructures = 10;
constexpr int kFlapRounds = 64;  // one flap per cohort offset
constexpr std::uint64_t kCohortStride = 64;
const SimTime kBackWindow = SimTime::from_millis(2000);
constexpr const char* kFieldTags[] = {
    tota::tuples::GradientTuple::kTag, tota::tuples::AdvertTuple::kTag,
    tota::tuples::FlockTuple::kTag, tota::tuples::FloodTuple::kTag};

/// Field events seen at one node; written only by the node's own shard
/// thread, read by the driver at quiescent points.
struct NodeLog {
  SimTime last_arrival[kStructures];
  SimTime retracted_at[kStructures];  // -1 µs: no repair pending
  SimTime last_change;
  std::vector<double> repairs_ms;
};

struct Structure {
  TupleUid uid;
  NodeId source;
};

class GridRun {
 public:
  GridRun(const Args& args, bool churn, bool traced)
      : args_(args), churn_(churn), traced_(traced) {
    side_ = args.size > 0 ? args.size : kDefaultSide;
    opts_.side = side_;
    opts_.shards = sim_shards();
    opts_.traced = traced;
    pick_sources();
    if (churn_) pick_cohorts();
  }

  Result run(SimTrace* trace_out);

 private:
  NodeId node_at(int row, int col) const {
    return NodeId{static_cast<std::uint64_t>(row * side_ + col + 1)};
  }

  /// Ten sources at fixed spread-out anchors.
  void pick_sources() {
    static constexpr double kAnchors[kStructures][2] = {
        {0.2, 0.2}, {0.8, 0.8}, {0.2, 0.8}, {0.8, 0.2}, {0.5, 0.5},
        {0.35, 0.65}, {0.65, 0.35}, {0.5, 0.2}, {0.5, 0.8}, {0.2, 0.5}};
    for (int k = 0; k < kStructures; ++k) {
      sources_.push_back(
          node_at(static_cast<int>(kAnchors[k][0] * (side_ - 1)),
                  static_cast<int>(kAnchors[k][1] * (side_ - 1))));
    }
  }

  /// kFlapRounds cohorts, each every 64th node from its own offset —
  /// spread evenly over the grid so every round cuts a similar share of
  /// the structures — minus the structure sources (a source's absence
  /// would drain its whole structure).  A pass flaps every offset once;
  /// the seed only picks the order.
  void pick_cohorts() {
    const auto n = static_cast<std::uint64_t>(side_) * side_;
    const std::uint64_t stride = std::min<std::uint64_t>(kCohortStride, n / 4);
    const std::uint64_t phase = mix_seed(args_.seed, 200);
    for (int r = 0; r < kFlapRounds; ++r) {
      // 29 is coprime to the stride: r ↦ offset visits every offset.
      const std::uint64_t offset =
          (phase + 29 * static_cast<std::uint64_t>(r)) % stride;
      std::vector<NodeId> cohort;
      for (std::uint64_t v = offset; v < n; v += stride) {
        const NodeId id{v + 1};
        if (std::find(sources_.begin(), sources_.end(), id) ==
            sources_.end()) {
          cohort.push_back(id);
        }
      }
      cohorts_.push_back(std::move(cohort));
    }
  }

  void build_world();
  void inject_structures();
  /// Every node holds every structure at its BFS hop count.
  void verify(Result& r);
  void flood_phase();
  void churn_phase();

  const Args& args_;
  bool churn_;
  bool traced_;
  int side_ = kDefaultSide;
  SimWorldOptions opts_;
  std::vector<NodeId> sources_;
  std::vector<std::vector<NodeId>> cohorts_;

  std::unique_ptr<SimWorld> world_;
  std::vector<NodeLog> logs_;  // by NodeId value
  std::vector<Structure> structures_;
  SimTime injected_at_;
  std::vector<double> heal_ms_;  // per disturbed node and flap
  std::vector<double> round_ms_;      // wall time of each round
  std::vector<double> round_cpu_ms_;  // process CPU of each round
};

void GridRun::build_world() {
  world_ = std::make_unique<SimWorld>(opts_);
  world_->run_for(SimTime::from_millis(500));
  logs_.assign(world_->nodes().size() + 1, NodeLog{});
  for (auto& log : logs_) {
    for (int k = 0; k < kStructures; ++k) {
      log.last_arrival[k] = SimTime(-1);
      log.retracted_at[k] = SimTime(-1);
    }
  }
  structures_.clear();
  structures_.reserve(kStructures);
  // Typed subscriptions on every node, one per field type: they record
  // arrival and removal instants, from which converge and repair times
  // are computed exactly (no histogram buckets).
  for (const NodeId id : world_->nodes()) {
    NodeLog* log = &logs_[id.value()];
    const auto* structs = &structures_;
    for (const char* tag : kFieldTags) {
      world_->mw(id).subscribe(
          tota::Pattern::of_type(tag),
          [log, structs](const tota::Event& e) {
            int k = 0;
            while (k < static_cast<int>(structs->size()) &&
                   (*structs)[k].uid != e.tuple->uid()) {
              ++k;
            }
            if (k == static_cast<int>(structs->size())) return;
            log->last_change = e.time;
            if (e.kind == tota::EventKind::kTupleArrived) {
              log->last_arrival[k] = e.time;
              if (log->retracted_at[k] >= SimTime::zero()) {
                log->repairs_ms.push_back(
                    (e.time - log->retracted_at[k]).millis());
                log->retracted_at[k] = SimTime(-1);
              }
            } else if (e.kind == tota::EventKind::kTupleRemoved &&
                       log->retracted_at[k] < SimTime::zero()) {
              log->retracted_at[k] = e.time;
            }
          },
          tota::EventBus::kAnyKind);
    }
  }
  // Continuous queries on a sample of nodes (every 64th), maintained
  // incrementally through floods and repairs.
  const auto& nodes = world_->nodes();
  for (std::size_t i = 0; i < nodes.size(); i += 64) {
    tota::Pattern near =
        tota::Pattern::of_type(tota::tuples::GradientTuple::kTag);
    near.where("hopcount", tota::Pred::le(16));
    world_->mw(nodes[i]).subscribe_query(
        std::move(near), [](const tota::QueryDelta&) {});
  }
}

void GridRun::inject_structures() {
  using namespace tota::tuples;
  injected_at_ = world_->net().now();
  for (int k = 0; k < kStructures; ++k) {
    std::unique_ptr<tota::Tuple> t;
    if (k < 4) {
      t = std::make_unique<GradientTuple>("field" + std::to_string(k));
    } else if (k < 6) {
      t = std::make_unique<AdvertTuple>("sensor" + std::to_string(k));
    } else if (k < 8) {
      t = std::make_unique<FlockTuple>(3);
    } else {
      t = std::make_unique<FloodTuple>("notice" + std::to_string(k),
                                       tota::wire::Value{k});
    }
    // The uid is known only after inject returns, but arrivals at the
    // source fire inside inject: register a placeholder first.
    structures_.push_back({TupleUid{sources_[k], 0}, sources_[k]});
    Span s(SpanKind::kInject);
    const TupleUid uid = world_->mw(sources_[k]).inject(std::move(t));
    s.set_uid(uid);
    structures_.back().uid = uid;
    // The source's own arrival fired before the uid was known.
    logs_[sources_[k].value()].last_arrival[k] = injected_at_;
  }
}

void GridRun::verify(Result& r) {
  const auto& topo = world_->net().topology();
  for (const Structure& s : structures_) {
    const auto oracle = topo.hop_distances(s.source);
    for (const NodeId id : world_->nodes()) {
      const auto* entry = world_->mw(id).space().find(s.uid);
      const auto it = oracle.find(id);
      const bool ok =
          it == oracle.end()
              ? entry == nullptr
              : entry != nullptr &&
                    entry->tuple->content().at("hopcount").as_int() ==
                        it->second;
      r.check(ok);
    }
  }
}

void GridRun::flood_phase() {
  next_cpu();
  const std::int64_t c0 = cpu_ns();
  const std::int64_t w0 = wall_ns();
  inject_structures();
  world_->run_for(SimTime::from_seconds(5));
  round_ms_.push_back(static_cast<double>(wall_ns() - w0) * 1e-6);
  round_cpu_ms_.push_back(static_cast<double>(cpu_ns() - c0) * 1e-6);
}

void GridRun::churn_phase() {
  for (const auto& cohort : cohorts_) {
    next_cpu();
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    std::vector<std::pair<NodeId, tota::Vec2>> home;
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      home.emplace_back(cohort[i], world_->net().position(cohort[i]));
      world_->net().move_node(
          cohort[i], {90000.0 + 200.0 * static_cast<double>(i), 90000.0});
    }
    world_->run_for(SimTime::from_millis(400));
    for (const auto& [id, pos] : home) {
      world_->net().move_node(id, pos);
      // A moved node's own reinstalls time its absence, not a repair.
      for (SimTime& t : logs_[id.value()].retracted_at) t = SimTime(-1);
    }
    const SimTime back = world_->net().now();
    world_->run_for(kBackWindow);
    // Settle time of every node this flap disturbed: its last structural
    // change after the cohort came back.
    for (const auto& log : logs_) {
      if (log.last_change > back) {
        heal_ms_.push_back((log.last_change - back).millis());
      }
    }
    round_ms_.push_back(static_cast<double>(wall_ns() - w0) * 1e-6);
    round_cpu_ms_.push_back(static_cast<double>(cpu_ns() - c0) * 1e-6);
  }
  world_->run_for(SimTime::from_seconds(2));
}

Result GridRun::run(SimTrace* trace_out) {
  Result r;
  std::vector<double> setup_s;
  std::vector<double> latencies_ms;
  std::vector<double> converge_ms;  // grid_flood: one per pass
  Counts counts;
  double timed_s = 0.0;
  std::size_t nodes = 0;
  for (int pass = 0; !budget_spent(args_, pass, timed_s, 3); ++pass) {
    if (traced_) trace::reset();
    opts_.seed = mix_seed(args_.seed, 1 + static_cast<std::uint64_t>(pass)) %
                     1000000 +
                 1;
    next_cpu();
    const std::int64_t t_setup = wall_ns();
    build_world();
    if (churn_) {
      inject_structures();
      world_->run_for(SimTime::from_seconds(5));
      verify(r);
      for (auto& log : logs_) log.repairs_ms.clear();
    }
    setup_s.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
    if (traced_) {
      accumulate(trace_out->setup, trace::snapshot());
      ++trace_out->setups;
      trace::reset();
    }
    nodes = world_->nodes().size();

    const Counts before = counts_of(world_->metrics());
    const std::size_t rounds_before = round_ms_.size();
    const std::int64_t w0 = wall_ns();
    if (churn_) {
      churn_phase();
    } else {
      flood_phase();
    }
    const double wall_s = static_cast<double>(wall_ns() - w0) * 1e-9;
    timed_s += wall_s;
    if (traced_) {
      accumulate(trace_out->timed, trace::snapshot());
      trace_out->frames = trace::captured_frames();
      trace_out->wall_s += wall_s;
      trace_out->rounds += static_cast<int>(round_ms_.size() - rounds_before);
    }
    add_delta(counts, counts_of(world_->metrics()), before);
    std::fprintf(stderr,
                 "pass %d: setup %.3f s, round median %.3f ms wall, "
                 "%.3f ms CPU\n",
                 pass, setup_s.back(),
                 median(std::vector<double>(
                     round_ms_.begin() + static_cast<long>(rounds_before),
                     round_ms_.end())),
                 median(std::vector<double>(
                     round_cpu_ms_.begin() + static_cast<long>(rounds_before),
                     round_cpu_ms_.end())));

    // Outputs: every structure BFS-exact; times from the event logs.
    verify(r);
    if (churn_) {
      for (const auto& log : logs_) {
        latencies_ms.insert(latencies_ms.end(), log.repairs_ms.begin(),
                            log.repairs_ms.end());
      }
    } else {
      // converge_ms: when 90% of the nodes hold a structure's final
      // replica, median over the ten structures.  The last few percent
      // ride on flood-time retraction cascades whose length swings widely
      // between seeds; latency_p99_ms keeps that tail in view.
      std::vector<double> per_structure;
      for (int k = 0; k < kStructures; ++k) {
        std::vector<double> arrivals;
        for (std::size_t v = 1; v < logs_.size(); ++v) {
          arrivals.push_back(
              (logs_[v].last_arrival[k] - injected_at_).millis());
        }
        latencies_ms.insert(latencies_ms.end(), arrivals.begin(),
                            arrivals.end());
        per_structure.push_back(quantile(arrivals, 0.9));
      }
      converge_ms.push_back(median(per_structure));
    }
    if (traced_) {
      std::size_t resident = 0;
      for (const NodeId id : world_->nodes()) {
        resident += world_->mw(id).space().size();
      }
      trace_out->resident_per_node =
          static_cast<double>(resident) / static_cast<double>(nodes);
    }
    world_.reset();
  }
  const double per_node_round =
      static_cast<double>(nodes) * static_cast<double>(round_ms_.size());
  r.set("setup_s", median(setup_s), "s");
  r.set("cpu_ms_per_round", median(round_cpu_ms_), "ms");
  r.set("converge_ms", churn_ ? median(heal_ms_) : median(converge_ms),
        "ms");
  r.set("latency_p50_ms", quantile(latencies_ms, 0.5), "ms");
  r.set("latency_p99_ms", quantile(latencies_ms, 0.99), "ms");
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

Result run_grid_flood(const Args& args, SimTrace* trace_out) {
  return GridRun(args, false, trace_out != nullptr).run(trace_out);
}

Result run_grid_churn(const Args& args, SimTrace* trace_out) {
  return GridRun(args, true, trace_out != nullptr).run(trace_out);
}

}  // namespace perf
