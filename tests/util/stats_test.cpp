#include "ash/util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace ash {
namespace {

TEST(Stats, MeanOfConstantsIsTheConstant) {
  const std::vector<double> xs{3.5, 3.5, 3.5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.5);
}

TEST(Stats, MeanOfArithmeticSequence) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, StddevMatchesHandComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample stddev with n-1 denominator: sqrt(32/7).
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, PercentileEndpointsAndMedian) {
  std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Stats, RmseOfIdenticalSpansIsZero) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
}

TEST(Stats, RmseOfConstantOffset) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(rmse(a, b), 1.0);
}

TEST(Stats, RSquaredPerfectFitIsOne) {
  const std::vector<double> obs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r_squared(obs, obs), 1.0);
}

TEST(Stats, RSquaredMeanModelIsZero) {
  const std::vector<double> obs{1.0, 2.0, 3.0};
  const std::vector<double> model{2.0, 2.0, 2.0};
  EXPECT_NEAR(r_squared(obs, model), 0.0, 1e-12);
}

TEST(Stats, RSquaredWorseThanMeanIsNegative) {
  const std::vector<double> obs{1.0, 2.0, 3.0};
  const std::vector<double> model{3.0, 2.0, 1.0};
  EXPECT_LT(r_squared(obs, model), 0.0);
}

TEST(RunningStats, MatchesBatchStatistics) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, TrimmedMeanDropsTails) {
  const std::vector<double> xs{100.0, 1.0, 2.0, 3.0, -50.0};
  // 20 % trim on n=5 drops one value per tail: mean of {1, 2, 3}.
  EXPECT_DOUBLE_EQ(robust_location(xs, RobustEstimator::kTrimmedMean, 0.2),
                   2.0);
  // Zero trim is the plain mean.
  EXPECT_DOUBLE_EQ(robust_location(xs, RobustEstimator::kTrimmedMean, 0.0),
                   mean(xs));
}

TEST(Stats, RobustLocationSelectsEstimator) {
  const std::vector<double> xs{10.0, 11.0, 12.0, 13.0, 1000.0};
  EXPECT_DOUBLE_EQ(robust_location(xs, RobustEstimator::kMean), mean(xs));
  EXPECT_DOUBLE_EQ(robust_location(xs, RobustEstimator::kMedian), 12.0);
  // 25 % trim on n=5 drops one from each tail.
  EXPECT_DOUBLE_EQ(robust_location(xs, RobustEstimator::kTrimmedMean, 0.25),
                   12.0);
  // The robust estimators shrug off the outlier; the mean cannot.
  EXPECT_GT(robust_location(xs, RobustEstimator::kMean), 200.0);
}

TEST(Stats, RobustEstimatorNames) {
  EXPECT_STREQ(to_string(RobustEstimator::kMean), "mean");
  EXPECT_STREQ(to_string(RobustEstimator::kMedian), "median");
  EXPECT_STREQ(to_string(RobustEstimator::kTrimmedMean), "trimmed-mean");
}

TEST(RunningStats, VarianceOfFewSamplesIsZero) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(1.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace ash
