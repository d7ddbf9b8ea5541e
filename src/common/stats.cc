#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace tota {

void Summary::add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sum_sq_ += value * value;
  sorted_valid_ = false;
}

double Summary::min() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::mean() const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  const auto n = static_cast<double>(samples_.size());
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  const double var = (sum_sq_ - n * m * m) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

void Summary::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Summary::quantile(double q) const {
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[rank == 0 ? 0 : rank - 1];
}

std::string Summary::str() const {
  if (samples_.empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.3f sd=%.3f p50=%.3f p95=%.3f min=%.3f max=%.3f",
                count(), mean(), stddev(), quantile(0.5), quantile(0.95),
                min(), max());
  return buf;
}

std::string Series::str() const {
  std::string out;
  for (const auto& p : points_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s: x=%.4g y=%.4g\n", name_.c_str(), p.x,
                  p.y);
    out += buf;
  }
  return out;
}

}  // namespace tota
