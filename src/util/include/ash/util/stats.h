#pragma once

/// \file stats.h
/// Summary statistics used by the measurement pipeline and the model
/// validation code: mean/stddev/percentiles, RMSE, and coefficient of
/// determination (R^2) for model-vs-measurement fits (Figs. 5–8 of the
/// paper overlay model curves on measured points; tests gate on R^2).

#include <cstddef>
#include <span>
#include <vector>

namespace ash {

/// Arithmetic mean.  Precondition: non-empty.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator).  Returns 0 for n < 2.
double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].  Precondition: non-empty.
double percentile(std::vector<double> xs, double p);

/// Median (50th percentile).
double median(std::vector<double> xs);

/// Symmetrically trimmed mean: drop the lowest and highest
/// floor(trim_fraction * n) values, average the rest.  trim_fraction in
/// [0, 0.5); at 0 this is the plain mean.  Precondition: non-empty.
double trimmed_mean(std::vector<double> xs, double trim_fraction);

/// Median absolute deviation (raw, no consistency factor): median(|x - median|).
/// The robust spread estimate used for outlier screening.  Precondition:
/// non-empty.
double median_abs_deviation(std::vector<double> xs);

/// Location estimators selectable by the measurement pipeline.  The mean is
/// the classical (fault-sensitive) choice; the median and trimmed mean
/// reject gross outliers such as corrupted counter readings.
enum class RobustEstimator { kMean, kMedian, kTrimmedMean };

const char* to_string(RobustEstimator estimator);

/// Apply the chosen location estimator.  `trim_fraction` only matters for
/// kTrimmedMean.  Precondition: non-empty.
double robust_location(std::vector<double> xs, RobustEstimator estimator,
                       double trim_fraction = 0.25);

/// Root-mean-square error between two equal-length spans.
double rmse(std::span<const double> a, std::span<const double> b);

/// Coefficient of determination of `model` against `observed`.
/// 1.0 = perfect fit; can be negative for fits worse than the mean.
double r_squared(std::span<const double> observed,
                 std::span<const double> model);

/// Pearson correlation coefficient.  Returns 0 when either input has zero
/// variance.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Streaming accumulator for mean/variance (Welford) — used by long
/// simulations that cannot retain every sample.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ash
