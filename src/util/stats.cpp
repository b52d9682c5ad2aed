#include "ash/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ash {

double mean(std::span<const double> xs) {
  assert(!xs.empty());
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  assert(!xs.empty());
  p = std::clamp(p, 0.0, 100.0);
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double trimmed_mean(std::vector<double> xs, double trim_fraction) {
  assert(!xs.empty());
  trim_fraction = std::clamp(trim_fraction, 0.0, 0.4999);
  const auto drop = static_cast<std::size_t>(
      trim_fraction * static_cast<double>(xs.size()));
  std::sort(xs.begin(), xs.end());
  const std::span<const double> kept(xs.data() + drop,
                                     xs.size() - 2 * drop);
  return mean(kept);
}

double median_abs_deviation(std::vector<double> xs) {
  assert(!xs.empty());
  const double m = median(xs);
  for (auto& x : xs) x = std::abs(x - m);
  return median(std::move(xs));
}

const char* to_string(RobustEstimator estimator) {
  switch (estimator) {
    case RobustEstimator::kMean:
      return "mean";
    case RobustEstimator::kMedian:
      return "median";
    case RobustEstimator::kTrimmedMean:
      return "trimmed-mean";
  }
  return "?";
}

double robust_location(std::vector<double> xs, RobustEstimator estimator,
                       double trim_fraction) {
  assert(!xs.empty());
  switch (estimator) {
    case RobustEstimator::kMean:
      return mean(xs);
    case RobustEstimator::kMedian:
      return median(std::move(xs));
    case RobustEstimator::kTrimmedMean:
      return trimmed_mean(std::move(xs), trim_fraction);
  }
  return mean(xs);
}

double rmse(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size() && !a.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double r_squared(std::span<const double> observed,
                 std::span<const double> model) {
  assert(observed.size() == model.size() && !observed.empty());
  const double m = mean(observed);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    ss_res += (observed[i] - model[i]) * (observed[i] - model[i]);
    ss_tot += (observed[i] - m) * (observed[i] - m);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size() && !xs.empty());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace ash
