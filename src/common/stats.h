// Lightweight statistics collection for experiments and benchmarks.
//
// Summary  — running min/max/mean/stddev plus exact quantiles on demand.
// Series   — (x, y) samples for printing a figure's data line.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tota {

/// Running summary of a stream of doubles.  Keeps all samples so exact
/// quantiles can be reported; experiment sample counts are small (<=1e6).
class Summary {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }
  /// Exact quantile via nearest-rank on the sorted samples; q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  /// "n=… mean=… p50=… p95=… max=…" for experiment output.
  [[nodiscard]] std::string str() const;

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = true;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// An (x, y) data series; one per plotted line of a reproduced figure.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}

  void add(double x, double y) { points_.push_back({x, y}); }

  struct Point {
    double x;
    double y;
  };

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }

  /// Prints "name: x=… y=…" rows, one per point.
  [[nodiscard]] std::string str() const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace tota
