// Shared plumbing for the experiment binaries (bench_fig*, bench_sec*).
//
// Each binary reproduces one table/figure from DESIGN.md §2 and prints
// its rows to stdout; EXPERIMENTS.md records a snapshot of this output
// next to what the paper asserts.  In addition to the text tables, every
// binary calls emit_json() once before exiting, writing the
// machine-readable BENCH_<name>.json described in docs/OBSERVABILITY.md.
// Each world records into its own shard hubs; a BenchWorld merges them
// into obs::default_hub() when it goes out of scope, so the file
// aggregates the whole run.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "emu/sharded_world.h"
#include "obs/export.h"
#include "tuples/all.h"

namespace tota::exp {

inline emu::ShardedWorld::Options manet_options(std::uint64_t seed,
                                                double range_m = 100.0) {
  emu::ShardedWorld::Options o;
  o.net.radio.range_m = range_m;
  o.net.seed = seed;
  return o;
}

/// A bench's simulated world.  When it goes out of scope, whichever way
/// the scope is left, it merges its metrics and trace into the process
/// hub, which is what emit_json() exports.
class BenchWorld : public emu::ShardedWorld {
 public:
  using emu::ShardedWorld::ShardedWorld;
  BenchWorld(const BenchWorld&) = delete;
  BenchWorld& operator=(const BenchWorld&) = delete;
  ~BenchWorld() {
    export_metrics(obs::default_hub().metrics);
    net().export_trace(obs::default_hub().tracer);
  }
};

/// Prints a horizontal rule + centered header for one experiment section.
inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Writes BENCH_<name>.json (metrics + trace of `hub`, or of the process
/// default hub when omitted) into the working directory and says so on
/// stdout.  Call once, at the end of main.
inline void emit_json(const std::string& name,
                      const obs::Hub* hub = nullptr) {
  const std::string path = obs::write_bench_json(
      name, hub != nullptr ? *hub : obs::default_hub());
  std::printf("\n[obs] wrote %s\n", path.c_str());
}

/// Prints one row of "name value" pairs, aligned.
inline void row(const std::string& label,
                const std::vector<std::pair<std::string, double>>& cells) {
  std::printf("%-28s", label.c_str());
  for (const auto& [name, value] : cells) {
    std::printf(" %s=%-10.4g", name.c_str(), value);
  }
  std::printf("\n");
}

/// Transmissions used by `body()`.
template <typename Fn>
std::int64_t tx_cost(emu::ShardedWorld& world, Fn&& body) {
  const auto before = world.metrics().get("radio.tx");
  body();
  return world.metrics().get("radio.tx") - before;
}

/// Fraction of nodes holding a replica matching `p`.
inline double coverage(const emu::ShardedWorld& world, const Pattern& p) {
  const auto nodes = world.nodes();
  if (nodes.empty()) return 0.0;
  int holders = 0;
  for (const NodeId n : nodes) {
    if (!world.mw(n).read(p).empty()) ++holders;
  }
  return static_cast<double>(holders) / static_cast<double>(nodes.size());
}

/// Fraction of nodes whose gradient replica equals the BFS oracle
/// (unreachable nodes count as correct when empty).
inline double gradient_accuracy(const emu::ShardedWorld& world,
                                NodeId source) {
  const auto oracle = world.net().topology().hop_distances(source);
  const Pattern p = Pattern::of_type(tuples::GradientTuple::kTag);
  int correct = 0;
  int total = 0;
  for (const NodeId n : world.nodes()) {
    ++total;
    const auto replica = world.mw(n).read_one(p);
    const auto it = oracle.find(n);
    if (it == oracle.end()) {
      correct += replica == nullptr ? 1 : 0;
    } else {
      correct += (replica != nullptr &&
                  replica->content().at("hopcount").as_int() == it->second)
                     ? 1
                     : 0;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(correct) / total;
}

}  // namespace tota::exp
