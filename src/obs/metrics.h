// Structured metrics: typed instruments behind pre-registered handles.
//
// The observability contract of this repository (docs/OBSERVABILITY.md):
// hot paths never pay a string-map lookup.  A component asks the
// MetricsRegistry for its instruments *once*, at construction, and keeps
// the returned references — recording is then a plain integer add
// (Counter), a store (Gauge), or a bounded-bucket insert (Histogram).
// Cold readers (benches, exporters, tests) look instruments up by name.
//
// Instruments are single-threaded, matching the deterministic
// discrete-event simulator they measure; no atomics, no locks.
//
// Compile-time kill switch: building with -DTOTA_OBS=OFF (CMake) defines
// TOTA_OBS_ENABLED=0 and every record operation compiles to a no-op while
// the API keeps its shape, so instrumented code needs no #ifdefs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

// 1 (default) = record operations do work; 0 = they compile to no-ops.
// Set by the TOTA_OBS CMake option; see src/obs/CMakeLists.txt.
#ifndef TOTA_OBS_ENABLED
#define TOTA_OBS_ENABLED 1
#endif
static_assert(TOTA_OBS_ENABLED == 0 || TOTA_OBS_ENABLED == 1,
              "TOTA_OBS_ENABLED must be defined to exactly 0 or 1 "
              "(drive it through the TOTA_OBS CMake option)");

namespace tota::obs {

/// Monotonically increasing tally, resolved once by name and then
/// bumped on the hot path without a lookup.
class Counter {
 public:
  void inc(std::int64_t delta = 1) {
#if TOTA_OBS_ENABLED
    value_ += delta;
#else
    (void)delta;
#endif
  }

  [[nodiscard]] std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_ = 0;
};

/// Last-written value (population sizes, queue depths, configuration).
class Gauge {
 public:
  void set(double value) {
#if TOTA_OBS_ENABLED
    value_ = value;
#else
    (void)value;
#endif
  }
  void add(double delta) {
#if TOTA_OBS_ENABLED
    value_ += delta;
#else
    (void)delta;
#endif
  }

  [[nodiscard]] double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Log-linear bucketed distribution with bounded memory.
///
/// Where Summary (common/stats.h) keeps every sample for exact
/// quantiles, Histogram buckets them: each power-of-two octave is split
/// into 8 linear sub-buckets, so quantile() is approximate with a
/// relative error bounded by the widest sub-bucket (the first of each
/// octave, ratio 9/8 → midpoint within ±6%) while memory stays
/// proportional to the number of *touched* buckets, not the sample
/// count.  min/max/mean/sum are exact.  Non-positive samples land in a
/// dedicated zero bucket and report as 0 from quantile().
class Histogram {
 public:
  void record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  /// Approximate nearest-rank quantile, q in [0,1]; NaN when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Adds another histogram's buckets and exact moments into this one.
  void merge_from(const Histogram& other);
  void reset();

  /// "n=… mean=… p50=… p95=… max=…" for text output.
  [[nodiscard]] std::string str() const;

 private:
  static int bucket_index(double value);
  static double bucket_representative(int index);

  // bucket index → sample count; kZeroBucket holds samples <= 0.
  // std::map iterates in value order, which is exactly quantile order.
  std::map<int, std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Names and owns instruments.  Registration (counter()/gauge()/
/// histogram()) is idempotent: the first call creates, later calls with
/// the same name return the same instrument, and the returned reference
/// stays valid for the registry's lifetime.  See docs/OBSERVABILITY.md
/// for the dotted naming scheme ("radio.tx", "maint.repair_ms", …).
class MetricsRegistry {
 public:
  /// Registers (or finds) the named instrument; keep the reference.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Cold read of a counter's value by name; 0 when never registered.
  [[nodiscard]] std::int64_t get(const std::string& name) const;

  /// Lookup without registering; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// Iteration for exporters; keys are sorted (std::map), so every
  /// export is deterministic.
  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Sums/merges every instrument of `other` into this registry,
  /// registering names as needed (used to aggregate per-world registries
  /// into a process-wide one).
  void merge_from(const MetricsRegistry& other);

  /// Zeroes all values; registrations (and handed-out handles) survive.
  void reset();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace tota::obs
