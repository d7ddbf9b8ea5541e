#include "tuples/agg_tuple.h"

#include <cmath>
#include <utility>

#include "tota/pattern.h"
#include "tota/tuple_space.h"

namespace tota::tuples {

namespace {

// Field names, interned at start-up (see FieldTuple).
const wire::Atom kAggOpField{"agg_op"};
const wire::Atom kAggValueField{"agg_field"};
const wire::Atom kAggHalfLifeField{"agg_hl"};

/// AggReportTuple's content fields.
struct ReportFields {
  wire::Atom agg_origin{"agg_origin"};
  wire::Atom agg_seq{"agg_seq"};
  wire::Atom reporter{"reporter"};
  wire::Atom via{"via"};
  wire::Atom tree_hop{"tree_hop"};
  wire::Atom sum{"sum"};
  wire::Atom cnt{"cnt"};
  wire::Atom min{"min"};
  wire::Atom max{"max"};
  wire::Atom stamp{"stamp"};
  wire::Atom rseq{"rseq"};
};
const ReportFields kReport;

}  // namespace

const char* to_string(AggOp op) {
  switch (op) {
    case AggOp::kCount: return "count";
    case AggOp::kSum: return "sum";
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
    case AggOp::kAvg: return "avg";
  }
  return "?";
}

std::optional<AggOp> agg_op_from_string(const std::string& s) {
  if (s == "count") return AggOp::kCount;
  if (s == "sum") return AggOp::kSum;
  if (s == "min") return AggOp::kMin;
  if (s == "max") return AggOp::kMax;
  if (s == "avg") return AggOp::kAvg;
  return std::nullopt;
}

double agg_decay_factor(SimTime age, SimTime half_life) {
  if (half_life.micros() <= 0 || age.micros() <= 0) return 1.0;
  const double x = static_cast<double>(age.micros()) /
                   static_cast<double>(half_life.micros());
  // Below the smallest subnormal anyway.
  if (x >= 1075.0) return 0.0;
  const double n = std::floor(x);
  const double f = x - n;  // in [0, 1)
  // 2^-f = e^(-f ln 2) by its series: plain +*/ only, so the value is
  // bit-identical everywhere (libm exp2 is not).  |t| <= ln 2, so 18
  // terms put the truncation error below one double ULP.
  const double t = -f * 0.693147180559945309417232121458;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k <= 18; ++k) {
    term *= t / static_cast<double>(k);
    sum += term;
  }
  return std::ldexp(sum, -static_cast<int>(n));
}

AggSummary AggSummary::decayed_to(SimTime now, SimTime half_life) const {
  AggSummary out = *this;
  if (now.micros() > stamp.micros()) {
    const double k =
        agg_decay_factor(SimTime(now.micros() - stamp.micros()), half_life);
    if (k != 1.0) {
      out.sum *= k;
      out.count *= k;
    }
    out.stamp = now;
  }
  return out;
}

void AggSummary::fold(const AggSummary& other, SimTime now,
                      SimTime half_life) {
  const AggSummary a = decayed_to(now, half_life);
  const AggSummary b = other.decayed_to(now, half_life);
  sum = a.sum + b.sum;
  count = a.count + b.count;
  stamp = now;
  has_extrema = a.has_extrema || b.has_extrema;
  if (a.has_extrema && b.has_extrema) {
    min = a.min < b.min ? a.min : b.min;
    max = a.max > b.max ? a.max : b.max;
  } else if (b.has_extrema) {
    min = b.min;
    max = b.max;
  }
}

std::optional<double> AggSummary::result(AggOp op) const {
  switch (op) {
    case AggOp::kCount:
      return count;
    case AggOp::kSum:
      return sum;
    case AggOp::kMin:
      if (!has_extrema) return std::nullopt;
      return min;
    case AggOp::kMax:
      if (!has_extrema) return std::nullopt;
      return max;
    case AggOp::kAvg:
      if (count <= 0.0) return std::nullopt;
      return sum / count;
  }
  return std::nullopt;
}

// --- AggregationTuple -------------------------------------------------------


AggregationTuple::AggregationTuple(std::string name, AggOp op, int scope)
    : QueryTuple(std::move(name), scope) {
  content().set(kAggOpField, std::string(tuples::to_string(op)));
}

AggregationTuple& AggregationTuple::over(std::string value_field) {
  content().set(kAggValueField, std::move(value_field));
  return *this;
}

AggregationTuple& AggregationTuple::matching(const Pattern& contributes) {
  with_predicate(contributes);
  return *this;
}

AggregationTuple& AggregationTuple::with_half_life(SimTime half_life) {
  content().set(kAggHalfLifeField, half_life.micros());
  return *this;
}

AggOp AggregationTuple::op() const {
  const wire::Value* v = content().find(kAggOpField);
  if (v == nullptr) return AggOp::kCount;
  const auto op = agg_op_from_string(v->as_string());
  return op.value_or(AggOp::kCount);
}

std::string AggregationTuple::value_field() const {
  const wire::Value* v = content().find(kAggValueField);
  return v != nullptr ? v->as_string() : std::string();
}

SimTime AggregationTuple::half_life() const {
  const wire::Value* v = content().find(kAggHalfLifeField);
  return v != nullptr ? SimTime(v->as_int()) : SimTime::zero();
}

// --- AggReportTuple ---------------------------------------------------------

std::unique_ptr<AggReportTuple> AggReportTuple::make(
    const TupleUid& agg, NodeId reporter, NodeId via, int tree_hop,
    const AggSummary& s, std::uint64_t rseq) {
  const ReportFields& f = kReport;
  auto t = std::make_unique<AggReportTuple>();
  auto& c = t->content();
  c.set(f.agg_origin, agg.origin());
  c.set(f.agg_seq, static_cast<std::int64_t>(agg.sequence()));
  c.set(f.reporter, reporter);
  c.set(f.via, via);
  c.set(f.tree_hop, tree_hop);
  c.set(f.sum, s.sum);
  c.set(f.cnt, s.count);
  if (s.has_extrema) {
    c.set(f.min, s.min);
    c.set(f.max, s.max);
  }
  c.set(f.stamp, s.stamp.micros());
  c.set(f.rseq, static_cast<std::int64_t>(rseq));
  return t;
}

TupleUid AggReportTuple::agg_uid() const {
  return TupleUid(
      content().at(kReport.agg_origin).as_node(),
      static_cast<std::uint64_t>(content().at(kReport.agg_seq).as_int()));
}

NodeId AggReportTuple::reporter() const {
  return content().at(kReport.reporter).as_node();
}

NodeId AggReportTuple::via() const {
  return content().at(kReport.via).as_node();
}

int AggReportTuple::tree_hop() const {
  return static_cast<int>(content().at(kReport.tree_hop).as_int());
}

AggSummary AggReportTuple::summary() const {
  const ReportFields& f = kReport;
  AggSummary s;
  s.sum = content().at(f.sum).as_number();
  s.count = content().at(f.cnt).as_number();
  const wire::Value* mn = content().find(f.min);
  const wire::Value* mx = content().find(f.max);
  if (mn != nullptr && mx != nullptr) {
    s.min = mn->as_number();
    s.max = mx->as_number();
    s.has_extrema = true;
  }
  s.stamp = SimTime(content().at(f.stamp).as_int());
  return s;
}

Pattern AggReportTuple::predecessors() const {
  const ReportFields& f = kReport;
  Pattern prev = Pattern::of_type(kTag);
  prev.eq("agg_origin", content().at(f.agg_origin))
      .eq("agg_seq", content().at(f.agg_seq))
      .eq("reporter", content().at(f.reporter));
  return prev;
}

bool AggReportTuple::decide_enter(const Context& ctx) {
  if (ctx.hop > 1) return false;
  if (ctx.hop == 1) {
    // Radio jitter can reorder successive reports from the same
    // reporter, and last-arrival-wins storage would then wedge a parent
    // on a stale summary.  The (fold stamp, send counter) pair is
    // strictly monotone per reporter — two zero-delay flushes can share
    // a clock microsecond, hence the rseq tie-break — so an arrival
    // older than the stored copy is late noise: refuse it at the door.
    const ReportFields& f = kReport;
    const std::int64_t my_stamp = content().at(f.stamp).as_int();
    const wire::Value* my_rseq_v = content().find(f.rseq);
    const std::int64_t my_rseq = my_rseq_v != nullptr ? my_rseq_v->as_int() : 0;
    for (const TupleHandle& stored : ctx.space.read(predecessors())) {
      const wire::Value* stamp = stored->content().find(f.stamp);
      if (stamp == nullptr) continue;
      const wire::Value* rseq = stored->content().find(f.rseq);
      const std::int64_t their_rseq = rseq != nullptr ? rseq->as_int() : 0;
      if (std::pair(stamp->as_int(), their_rseq) >
          std::pair(my_stamp, my_rseq)) {
        return false;
      }
    }
  }
  return true;
}

bool AggReportTuple::decide_store(const Context& ctx) { return ctx.hop == 1; }

bool AggReportTuple::decide_propagate(const Context& ctx) {
  return ctx.hop == 0;
}

void AggReportTuple::apply_effects(const Context& ctx) {
  if (ctx.hop != 1 || ctx.ops == nullptr) return;
  // One live report per (aggregation, reporter) at any node: this runs
  // before the new copy is stored, so taking every match removes exactly
  // the predecessor(s).
  ctx.ops->take_local(predecessors());
}

}  // namespace tota::tuples
