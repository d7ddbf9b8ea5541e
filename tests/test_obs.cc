// Tests for the observability subsystem (src/obs/): registry handle
// semantics, histogram accuracy against the exact Summary, tracer ring
// wraparound, and JSON export / parse round-trips.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/export.h"
#include "obs/hub.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "obs_expect.h"

namespace tota::obs {
namespace {

using tota::testing::recorded;

// --- MetricsRegistry ---------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentAndHandlesAreStable) {
  MetricsRegistry reg;
  Counter& a = reg.counter("radio.tx");
  Counter& b = reg.counter("radio.tx");
  EXPECT_EQ(&a, &b);

  a.inc();
  a.inc(4);
  EXPECT_EQ(b.value(), recorded(5));

  // Registering many other instruments must not invalidate `a`
  // (std::map storage: no rehash/relocation).
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i)).inc();
  }
  a.inc();
  EXPECT_EQ(reg.counter("radio.tx").value(), recorded(6));
}

TEST(MetricsRegistry, KindsHaveSeparateNamespaces) {
  MetricsRegistry reg;
  reg.counter("x").inc(7);
  reg.gauge("x").set(2.5);
  reg.histogram("x").record(1.0);
  EXPECT_EQ(reg.counter("x").value(), recorded(7));
  EXPECT_DOUBLE_EQ(reg.gauge("x").value(), recorded(2.5));
  EXPECT_EQ(reg.histogram("x").count(), recorded(1u));
}

TEST(MetricsRegistry, GetMatchesLegacyCountersSemantics) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.get("never.registered"), 0);  // absent reads as 0
  reg.counter("radio.tx").inc(3);
  EXPECT_EQ(reg.get("radio.tx"), recorded(3));
}

TEST(MetricsRegistry, FindDoesNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_gauge("a"), nullptr);
  EXPECT_EQ(reg.find_histogram("a"), nullptr);
  EXPECT_TRUE(reg.counters().empty());

  reg.counter("a").inc();
  ASSERT_NE(reg.find_counter("a"), nullptr);
  EXPECT_EQ(reg.find_counter("a")->value(), recorded(1));
}

TEST(MetricsRegistry, MergeFromSumsAndRegisters) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("tx").inc(2);
  b.counter("tx").inc(3);
  b.counter("only_in_b").inc(1);
  b.gauge("g").set(4.0);
  b.histogram("h").record(10.0);
  b.histogram("h").record(20.0);

  a.merge_from(b);
  EXPECT_EQ(a.get("tx"), recorded(5));
  EXPECT_EQ(a.get("only_in_b"), recorded(1));
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), recorded(4.0));
  EXPECT_EQ(a.histogram("h").count(), recorded(2u));
  EXPECT_DOUBLE_EQ(a.histogram("h").sum(), recorded(30.0));
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("tx");
  Histogram& h = reg.histogram("lat");
  c.inc(9);
  h.record(5.0);

  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_TRUE(h.empty());
  c.inc();  // handle still live and wired to the registry
  EXPECT_EQ(reg.get("tx"), recorded(1));
}

// --- Histogram ---------------------------------------------------------

TEST(Histogram, EmptyQuantileIsNaN) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

// The rest record samples, which TOTA_OBS=OFF compiles out.
#if TOTA_OBS_ENABLED
TEST(Histogram, ExactMomentsApproximateQuantiles) {
  // Compare against Summary, which keeps every sample and reports exact
  // nearest-rank quantiles.  The log-linear buckets (8 per octave)
  // guarantee ±6% relative error on quantiles; moments are exact.
  Histogram h;
  Summary s;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    // Spread over several octaves, like repair latencies in ms.
    const double v = std::exp(rng.uniform(0.0, 8.0));
    h.record(v);
    s.add(v);
  }
  EXPECT_EQ(h.count(), s.count());
  EXPECT_DOUBLE_EQ(h.sum(), s.sum());
  EXPECT_DOUBLE_EQ(h.min(), s.min());
  EXPECT_DOUBLE_EQ(h.max(), s.max());
  EXPECT_DOUBLE_EQ(h.mean(), s.mean());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const double exact = s.quantile(q);
    const double approx = h.quantile(q);
    EXPECT_NEAR(approx, exact, exact * 0.07)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(Histogram, QuantileEndpointsAreClampedToObservedRange) {
  Histogram h;
  h.record(3.0);
  h.record(300.0);
  // Low end: a bucket-midpoint estimate of the smallest sample, clamped
  // so it can never undershoot the observed min.
  EXPECT_GE(h.quantile(0.0), 3.0);
  EXPECT_NEAR(h.quantile(0.0), 3.0, 3.0 * 0.07);
  // High end: the exact max (clamp beats the midpoint at the edge).
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 300.0);
  EXPECT_GE(h.quantile(0.5), 3.0);
  EXPECT_LE(h.quantile(0.5), 300.0);
}

TEST(Histogram, SingleSampleReportsItselfEverywhere) {
  Histogram h;
  h.record(42.0);
  EXPECT_DOUBLE_EQ(h.min(), 42.0);
  EXPECT_DOUBLE_EQ(h.max(), 42.0);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
}

TEST(Histogram, NonPositiveSamplesLandInZeroBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-5.0);
  h.record(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 0.0);  // zero bucket reports as 0
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, MergeMatchesRecordingEverythingIntoOne) {
  Histogram a;
  Histogram b;
  Histogram all;
  for (int i = 1; i <= 50; ++i) {
    a.record(i);
    all.record(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.record(i);
    all.record(i);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
}
#endif  // TOTA_OBS_ENABLED

// --- Tracer ------------------------------------------------------------

Span make_span(std::uint64_t seq) {
  return {SimTime(static_cast<std::int64_t>(seq)), NodeId{1}, Stage::kStore,
          TupleUid{NodeId{1}, seq}, 0};
}

#if TOTA_OBS_ENABLED  // the ring fills only when spans record
TEST(Tracer, FillsThenWrapsOldestFirst) {
  Tracer tr(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Span s = make_span(i);
    tr.record(s.t, s.node, s.stage, s.cause, s.hop);
  }
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 0u);
  auto spans = tr.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans.front().cause.sequence(), 0u);
  EXPECT_EQ(spans.back().cause.sequence(), 2u);

  // Push past capacity: 7 total through a ring of 4 keeps the last 4.
  for (std::uint64_t i = 3; i < 7; ++i) {
    const Span s = make_span(i);
    tr.record(s.t, s.node, s.stage, s.cause, s.hop);
  }
  EXPECT_EQ(tr.recorded(), 7u);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 3u);
  spans = tr.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].cause.sequence(), 3 + i);  // oldest-first: 3,4,5,6
  }
}
#endif  // TOTA_OBS_ENABLED

TEST(Tracer, ClearResetsEverything) {
  Tracer tr(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Span s = make_span(i);
    tr.record(s.t, s.node, s.stage, s.cause, s.hop);
  }
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.recorded(), 0u);
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, StageNamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kInject), "inject");
  EXPECT_STREQ(stage_name(Stage::kPropagate), "propagate");
  EXPECT_STREQ(stage_name(Stage::kStore), "store");
  EXPECT_STREQ(stage_name(Stage::kRetract), "retract");
  EXPECT_STREQ(stage_name(Stage::kHeal), "heal");
  EXPECT_STREQ(stage_name(Stage::kProbe), "probe");
}

// --- Json --------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesKindsAndValues) {
  Json::Object obj;
  obj.emplace("int", Json(std::int64_t{9007199254740993}));  // > 2^53
  obj.emplace("neg", Json(std::int64_t{-42}));
  obj.emplace("dbl", Json(0.125));
  obj.emplace("str", Json("line\nbreak \"quoted\" \\slash"));
  obj.emplace("flag", Json(true));
  obj.emplace("nothing", Json(nullptr));
  obj.emplace("arr", Json(Json::Array{Json(1), Json(2.5), Json("three")}));
  const Json doc{obj};

  for (const int indent : {-1, 2}) {
    const Json back = Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.is_object());
    EXPECT_TRUE(back.at("int").is_int());
    EXPECT_EQ(back.at("int").as_int(), 9007199254740993);
    EXPECT_EQ(back.at("neg").as_int(), -42);
    EXPECT_TRUE(back.at("dbl").is_double());
    EXPECT_DOUBLE_EQ(back.at("dbl").as_double(), 0.125);
    EXPECT_EQ(back.at("str").as_string(), "line\nbreak \"quoted\" \\slash");
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("nothing").is_null());
    ASSERT_EQ(back.at("arr").as_array().size(), 3u);
    EXPECT_EQ(back.at("arr").as_array()[2].as_string(), "three");
  }
}

TEST(Json, DumpIsDeterministicSortedKeys) {
  Json::Object obj;
  obj.emplace("zebra", Json(1));
  obj.emplace("alpha", Json(2));
  const std::string text = Json{obj}.dump();
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
  EXPECT_EQ(text, Json{obj}.dump());  // byte-identical on repeat
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("'single'"), JsonParseError);
}

TEST(Json, ParseHandlesUnicodeEscapes) {
  const Json v = Json::parse("\"a\\u00e9b\"");
  EXPECT_EQ(v.as_string(), "a\xc3\xa9" "b");  // é in UTF-8
}

// --- Exporters ---------------------------------------------------------

TEST(Export, BenchJsonRoundTripsCountersExactly) {
  Hub hub;
  hub.metrics.counter("radio.tx").inc(123456789);
  hub.metrics.gauge("pop").set(49.0);
  Histogram& h = hub.metrics.histogram("maint.repair_ms");
  for (int i = 1; i <= 100; ++i) h.record(i);
  hub.tracer.record(SimTime::from_millis(5), NodeId{3}, Stage::kInject,
                    TupleUid{NodeId{3}, 1}, 0);

  const Json doc = Json::parse(bench_to_json("unit", hub).dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), kBenchSchema);
  EXPECT_EQ(doc.at("bench").as_string(), "unit");
  EXPECT_EQ(doc.at("metrics").at("radio.tx").as_int(), recorded(123456789));
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("pop").as_double(), recorded(49.0));

  const Json& hist = doc.at("histograms").at("maint.repair_ms");
  EXPECT_EQ(hist.at("count").as_int(), recorded(100));

#if TOTA_OBS_ENABLED  // OFF: the histogram exports only its count; no span
  EXPECT_DOUBLE_EQ(hist.at("min").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("max").as_double(), 100.0);
  EXPECT_NEAR(hist.at("p50").as_double(), 50.0, 50.0 * 0.05);

  const Json& trace = doc.at("trace");
  EXPECT_EQ(trace.at("recorded").as_int(), 1);
  ASSERT_EQ(trace.at("spans").as_array().size(), 1u);
  const Json& span = trace.at("spans").as_array()[0];
  EXPECT_EQ(span.at("t_us").as_int(), 5000);
  EXPECT_EQ(span.at("stage").as_string(), "inject");
  EXPECT_EQ(span.at("uid").as_string(), "3:1");
  EXPECT_EQ(span.at("hop").as_int(), 0);
#endif
}

TEST(Export, TraceJsonHonoursMaxSpans) {
  Hub hub;
  for (std::uint64_t i = 0; i < 10; ++i) {
    hub.tracer.record(SimTime(static_cast<std::int64_t>(i)), NodeId{1},
                      Stage::kStore, TupleUid{NodeId{1}, i}, 0);
  }
  const Json trace = trace_to_json(hub.tracer, 3);
#if TOTA_OBS_ENABLED
  ASSERT_EQ(trace.at("spans").as_array().size(), 3u);
  // Newest 3 of 10, still oldest-first among themselves.
  EXPECT_EQ(trace.at("spans").as_array()[0].at("uid").as_string(), "1:7");
  EXPECT_EQ(trace.at("spans").as_array()[2].at("uid").as_string(), "1:9");
#else
  EXPECT_TRUE(trace.at("spans").as_array().empty());
#endif
}

TEST(Export, CsvHasOneRowPerScalarAndPerHistogramStat) {
  MetricsRegistry reg;
  reg.counter("tx").inc(2);
  reg.histogram("lat").record(7.0);
  const std::string csv = metrics_to_csv(reg);
  EXPECT_NE(csv.find("tx,counter," + std::to_string(recorded(2))),
            std::string::npos);
  EXPECT_NE(csv.find("lat.count,histogram," + std::to_string(recorded(1))),
            std::string::npos);
#if TOTA_OBS_ENABLED  // an empty histogram has no quantile rows
  EXPECT_NE(csv.find("lat.p50,histogram,"), std::string::npos);
#endif
}

}  // namespace
}  // namespace tota::obs
