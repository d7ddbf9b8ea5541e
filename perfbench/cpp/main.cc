// tota_perf — the benchmark driver.
//
//   tota_perf --workload <grid_flood|grid_churn|app_query|live_mass>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--passes <n>] [--size <n>] [--out-dir <dir>]
//             [--counts-out <file>]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced it prints
// the per-layer metrics, writes the span sample to <out-dir>, and reports
// the traced run's end-to-end figures on stderr.  Either way the last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 77 means loopback UDP is unavailable (live_mass skipped).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "sim_world.h"
#include "span_trace.h"
#include "workloads.h"

namespace {

using perf::Args;
using perf::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tota_perf: %s\nusage: tota_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--passes <n>] [--size <n>] "
               "[--out-dir <dir>] [--counts-out <file>]\n",
               why);
  std::exit(2);
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print_metrics(std::FILE* f, const Result& r) {
  for (const auto& m : r.metrics) {
    std::fprintf(f, "  %-32s %18.6f %s\n", m.name.c_str(), finite(m.value),
                 m.unit.c_str());
  }
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  bool first = true;
  for (const auto& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), finite(m.value),
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void write_counts(const std::string& path, const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "tota_perf: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, v] : r.counts) {
    std::fprintf(f, "%s\n  \"%s\": %lld", first ? "" : ",", name.c_str(),
                 static_cast<long long>(v));
    first = false;
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

double metric(const Result& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// Extra CPU per round the traced run spent over the untraced one.
double overhead(const Result& traced, const Result& untraced) {
  return metric(traced, "cpu_ms_per_round") /
             metric(untraced, "cpu_ms_per_round") -
         1.0;
}

using SimWorkload = Result (*)(const Args&, perf::SimTrace*);

/// Traced sim run: an untraced run for the overhead baseline, then the
/// same run traced, reduced to per-layer metrics.
Result traced_sim(const Args& args, SimWorkload run) {
  const Result baseline = run(args, nullptr);

  perf::trace::enable(true);
  perf::SimTrace t;
  t.shards = perf::sim_shards();
  const Result traced = run(args, &t);
  perf::trace::enable(false);

  std::fprintf(stderr, "traced run, end-to-end figures:\n");
  print_metrics(stderr, traced);

  Result out;
  perf::init_layer_metrics(out);
  perf::report_sim_layers(args.workload, t, out);
  out.set("obs.trace_overhead", overhead(traced, baseline), "ratio");
  out.attempted = baseline.attempted + traced.attempted;
  out.failed = baseline.failed + traced.failed;
  out.counts = traced.counts;

  const std::string path = args.out_dir + "/spans_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  perf::trace::write(path, t.timed);
  std::fprintf(stderr, "span sample written to %s\n", path.c_str());
  return out;
}

/// live_mass, untraced or traced (same shape as traced_sim).  False when
/// loopback UDP is unavailable.
bool live(const Args& args, Result& result) {
  std::string skip;
  bool ok = true;
  if (!args.trace) {
    ok = perf::run_live_mass(args, result, nullptr, skip);
  } else {
    Result baseline;
    ok = perf::run_live_mass(args, baseline, nullptr, skip);
    Result traced;
    perf::init_layer_metrics(result);
    if (ok) {
      perf::trace::enable(true);
      ok = perf::run_live_mass(args, traced, &result, skip);
      perf::trace::enable(false);
    }
    if (ok) {
      std::fprintf(stderr, "traced run, end-to-end figures:\n");
      print_metrics(stderr, traced);
      result.set("obs.trace_overhead", overhead(traced, baseline), "ratio");
      result.attempted = baseline.attempted + traced.attempted;
      result.failed = baseline.failed + traced.failed;
      const std::string path = args.out_dir + "/spans_live_mass_" +
                               std::to_string(args.seed) + ".json";
      perf::trace::write(path, perf::trace::snapshot());
      std::fprintf(stderr, "span sample written to %s\n", path.c_str());
    }
  }
  if (!ok) std::fprintf(stderr, "live_mass skipped: %s\n", skip.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string counts_out;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      have_seconds = true;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--passes") {
      args.passes = std::atoi(value.c_str());
    } else if (flag == "--size") {
      args.size = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--counts-out") {
      counts_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.seconds <= 0) {
    usage("--seed, --seconds (> 0) and --trace (0|1) are required");
  }
  std::filesystem::create_directories(args.out_dir);
  perf::trace::mark_driver();

  Result result;
  if (args.workload == "grid_flood" || args.workload == "grid_churn" ||
      args.workload == "app_query") {
    const SimWorkload run = args.workload == "grid_flood" ? perf::run_grid_flood
                            : args.workload == "grid_churn"
                                ? perf::run_grid_churn
                                : perf::run_app_query;
    result = args.trace ? traced_sim(args, run) : run(args, nullptr);
  } else if (args.workload == "live_mass") {
    if (!live(args, result)) return 77;
  } else {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }

  if (!counts_out.empty()) write_counts(counts_out, result);
  std::printf("%s (seed %llu, %s):\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced, per-layer" : "end-to-end");
  print_metrics(stdout, result);
  std::printf("  attempted %lld, failed %lld, fail_ratio %.6g\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0);
  print_json(result);
  return 0;
}
