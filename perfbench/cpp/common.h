// Shared plumbing of the benchmark driver: arguments, the result record
// every workload fills in, clocks, and exact order statistics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perf {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Timed-phase budget of one run; workloads repeat passes (a set-up
  /// plus its timed rounds) until it is spent, and run at least three.
  double seconds = 10.0;
  bool trace = false;
  /// Non-zero: run exactly this many passes and ignore `seconds` — the
  /// determinism self-check needs a fixed amount of work.
  int passes = 0;
  /// Non-zero: shrink the world (grid side / live node count).
  int size = 0;
  /// Where per-run artefacts (span samples, counter dumps) go.
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `metrics` holds the end-to-end set
/// untraced, the per-layer set traced; `counts` holds the deterministic
/// counters the self-check compares across runs.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::int64_t> counts;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  /// Counts one checked operation; returns `ok` for chaining.
  bool check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

/// Monotonic wall clock, ns.
std::int64_t wall_ns();
/// CPU time of the whole process (all threads), ns.
std::int64_t cpu_ns();
/// Moves the calling thread to the next CPU of the ones it was allowed at
/// start, round-robin.  The workloads call it before every round: on a
/// shared host one core can run a third slower than another for tens of
/// seconds, and a thread the scheduler leaves on one core would carry that
/// core's state into the whole run; cycling spreads the rounds over every
/// core, so the median round sees the typical one.
void next_cpu();
/// Peak resident set size of the process, MB.
double peak_rss_mb();

/// Exact quantile by linear interpolation between order statistics
/// (q in [0,1]); 0 for an empty sample.  Sorts `v`.
double quantile(std::vector<double>& v, double q);
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Mixes the run seed with a stream label into an independent seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t label);

/// True once the timed budget is spent and at least `min_passes` ran.
inline bool budget_spent(const Args& args, int passes_done, double timed_s,
                         int min_passes) {
  if (args.passes > 0) return passes_done >= args.passes;
  return passes_done >= min_passes && timed_s >= args.seconds;
}

}  // namespace perf
