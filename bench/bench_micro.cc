// Micro-benchmarks of middleware hot paths: serialization, pattern
// matching, tuple-space operations, and single-node engine processing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <deque>

#include "obs/export.h"
#include "tota/engine.h"
#include "tota/tuple_space.h"
#include "tuples/all.h"
#include "wire/buffer.h"
#include "wire/frame.h"

namespace tota {
namespace {

/// A platform that counts what it sends and never fires a timer.
class NullPlatform final : public Platform {
 public:
  void broadcast(wire::Bytes payload) override {
    bytes_out += payload.size();
  }
  [[nodiscard]] SimTime now() const override { return time; }
  TimerId schedule(SimTime, std::function<void()>) override {
    return next_timer_++;
  }
  void cancel(TimerId) override {}
  [[nodiscard]] Vec2 position() const override { return {}; }
  [[nodiscard]] Rng& rng() override { return rng_; }

  std::size_t bytes_out = 0;
  SimTime time;

 private:
  Rng rng_{1};
  TimerId next_timer_ = 1;
};

tuples::GradientTuple sample_tuple() {
  tuples::GradientTuple g("structure");
  g.set_uid(TupleUid{NodeId{7}, 42});
  g.set_hop(5);
  g.content().set("source", NodeId{7}).set("hopcount", 5);
  return g;
}

void BM_TupleEncode(benchmark::State& state) {
  tuples::register_standard_tuples();
  const auto tuple = sample_tuple();
  for (auto _ : state) {
    wire::Writer w;
    tuple.encode(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
}
BENCHMARK(BM_TupleEncode);

void BM_TupleDecode(benchmark::State& state) {
  tuples::register_standard_tuples();
  wire::Writer w;
  sample_tuple().encode(w);
  const auto bytes = w.take();
  for (auto _ : state) {
    wire::Reader r(bytes);
    auto t = Tuple::decode(r);
    benchmark::DoNotOptimize(t.get());
  }
}
BENCHMARK(BM_TupleDecode);

void BM_PatternMatch(benchmark::State& state) {
  tuples::register_standard_tuples();
  const auto tuple = sample_tuple();
  Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  p.eq("name", "structure").eq("source", NodeId{7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.matches(tuple));
  }
}
BENCHMARK(BM_PatternMatch);

/// Populates `space` with a 1:7 mix of gradient and message tuples spread
/// over 8 parents — the fixture for the query-plan benchmarks.
void fill_mixed_space(TupleSpace& space, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    std::unique_ptr<Tuple> t;
    if (i % 8 == 0) {
      auto g = std::make_unique<tuples::GradientTuple>("structure");
      g->content().set("source", NodeId{7});
      t = std::move(g);
    } else {
      t = std::make_unique<tuples::MessageTuple>();
    }
    t->set_uid(TupleUid{NodeId{static_cast<std::uint64_t>(i + 1)}, 1});
    t->content().set("hopcount", static_cast<int>(i % 10));
    space.put(std::move(t), NodeId{static_cast<std::uint64_t>(i % 8)}, true,
              SimTime::zero());
  }
}

/// The pre-refactor shape of a filtered query: a full scan handing every
/// entry to an opaque std::function, exactly what Pattern's old lambda
/// where() clauses cost (no index, one indirect call per entry).
void BM_QueryScanLambda(benchmark::State& state) {
  tuples::register_standard_tuples();
  TupleSpace space;
  fill_mixed_space(space, state.range(0));
  const std::function<bool(const Tuple&)> filter = [](const Tuple& t) {
    return t.type_tag() == tuples::GradientTuple::kTag &&
           t.content().has("hopcount") &&
           t.content().at("hopcount").as_int() <= 4;
  };
  for (auto _ : state) {
    std::vector<const Tuple*> out;
    space.for_each([&](const TupleSpace::Entry& e) {
      if (filter(*e.tuple)) out.push_back(e.tuple.get());
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_QueryScanLambda)->Arg(128)->Arg(1024);

/// The same query as a typed predicate pattern: the planner routes it
/// through the type bucket (1/8 of the store) and evaluates the AST
/// residual only there.
void BM_QueryPlanPredicate(benchmark::State& state) {
  tuples::register_standard_tuples();
  TupleSpace space;
  fill_mixed_space(space, state.range(0));
  Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  p.where("hopcount", Pred::le(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.peek(p));
  }
}
BENCHMARK(BM_QueryPlanPredicate)->Arg(128)->Arg(1024);

/// Maintaining a standing query incrementally: one put+erase churn cycle
/// against a populated store, deltas flowing through the bus.
void BM_ContinuousQueryDelta(benchmark::State& state) {
  tuples::register_standard_tuples();
  TupleSpace space;
  EventBus bus;
  fill_mixed_space(space, state.range(0));
  space.set_listener([&](TupleSpace::ChangeKind kind,
                         const TupleSpace::Entry& entry) {
    auto change = EventBus::SpaceChange::kStored;
    if (kind == TupleSpace::ChangeKind::kReplaced) {
      change = EventBus::SpaceChange::kReplaced;
    } else if (kind == TupleSpace::ChangeKind::kErased) {
      change = EventBus::SpaceChange::kErased;
    }
    bus.notify_space(change, entry.type_tag, *entry.tuple, entry.parent,
                     entry.propagated, SimTime::zero());
  });
  Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  p.where("hopcount", Pred::le(4));
  std::int64_t deltas = 0;
  bus.subscribe_query(p, [&deltas](const QueryDelta&) { ++deltas; });
  const TupleUid churn{NodeId{9999}, 1};
  for (auto _ : state) {
    auto g = std::make_unique<tuples::GradientTuple>("structure");
    g->set_uid(churn);
    g->content().set("source", NodeId{7}).set("hopcount", 2);
    space.put(std::move(g), NodeId{1}, true, SimTime::zero());
    space.erase(churn);
    benchmark::DoNotOptimize(deltas);
  }
}
BENCHMARK(BM_ContinuousQueryDelta)->Arg(128)->Arg(1024);

/// The naive alternative a continuous query replaces: re-running the full
/// query after every mutation.
void BM_ContinuousQueryRescan(benchmark::State& state) {
  tuples::register_standard_tuples();
  TupleSpace space;
  fill_mixed_space(space, state.range(0));
  Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  p.where("hopcount", Pred::le(4));
  const TupleUid churn{NodeId{9999}, 1};
  for (auto _ : state) {
    auto g = std::make_unique<tuples::GradientTuple>("structure");
    g->set_uid(churn);
    g->content().set("source", NodeId{7}).set("hopcount", 2);
    space.put(std::move(g), NodeId{1}, true, SimTime::zero());
    benchmark::DoNotOptimize(space.peek(p));
    space.erase(churn);
    benchmark::DoNotOptimize(space.peek(p));
  }
}
BENCHMARK(BM_ContinuousQueryRescan)->Arg(128)->Arg(1024);

/// Publish through the subscription buckets: `subs` subscriptions split
/// across 8 tuple-type patterns, one event matching 1/8 of them.
void BM_EventDispatch(benchmark::State& state) {
  tuples::register_standard_tuples();
  EventBus bus;
  const auto subs = state.range(0);
  std::int64_t fired = 0;
  for (std::int64_t i = 0; i < subs; ++i) {
    Pattern p = i % 8 == 0
                    ? Pattern::of_type(tuples::GradientTuple::kTag)
                    : Pattern::of_type("tota.other" + std::to_string(i % 8));
    bus.subscribe(std::move(p), [&fired](const Event&) { ++fired; });
  }
  const auto tuple = sample_tuple();
  const Event event{EventKind::kTupleArrived, &tuple, SimTime::zero()};
  for (auto _ : state) {
    bus.publish(event);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventDispatch)->Arg(8)->Arg(128);

/// Per-replica receive cost at a steady store size, measured the way
/// perfbench's engine.rx_steady64_ns / rx_steady1k_ns are: a pool of
/// 2×resident TUPLE frames with distinct uids is replayed in a cycle, the
/// oldest resident uid is erased before each insert so the store holds
/// exactly `resident` tuples, and only Engine::on_datagram is timed.
void BM_EngineReceive(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  tuples::register_standard_tuples();
  const auto resident = static_cast<std::size_t>(state.range(0));
  std::vector<wire::Bytes> frames;
  for (std::size_t j = 0; j < 2 * resident; ++j) {
    auto t = sample_tuple();
    t.set_uid(TupleUid{NodeId{7}, j + 1});
    t.set_hop(0);
    frames.push_back(
        wire::Frame::tuple([&t](wire::Writer& w) { t.encode(w); }));
  }
  NullPlatform platform;
  TupleSpace space;
  EventBus bus;
  Engine engine(NodeId{1}, platform, space, bus);
  std::deque<TupleUid> fifo;
  std::size_t next = 0;
  const auto deliver = [&] {
    const TupleUid uid{NodeId{7}, next + 1};
    const auto& frame = frames[next];
    next = (next + 1) % frames.size();
    if (space.size() >= resident && !fifo.empty()) {
      space.erase(fifo.front());
      fifo.pop_front();
    }
    const auto start = Clock::now();
    engine.on_datagram(NodeId{3}, frame);
    const std::chrono::duration<double> spent = Clock::now() - start;
    if (space.find(uid) != nullptr) fifo.push_back(uid);
    return spent.count();
  };
  for (std::size_t i = 0; i < frames.size(); ++i) deliver();  // warm-up
  for (auto _ : state) state.SetIterationTime(deliver());
}
BENCHMARK(BM_EngineReceive)->Arg(64)->Arg(1024)->UseManualTime();

}  // namespace
}  // namespace tota

// BENCHMARK_MAIN(), plus the BENCH_micro.json export every experiment
// binary owes (docs/OBSERVABILITY.md): the engine benchmarks above
// record into obs::default_hub() like any other engine.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string path =
      tota::obs::write_bench_json("micro", tota::obs::default_hub());
  std::printf("[obs] wrote %s\n", path.c_str());
  return 0;
}
