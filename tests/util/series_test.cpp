#include "ash/util/series.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace ash {
namespace {

Series ramp() {
  Series s("ramp");
  s.append(0.0, 0.0);
  s.append(10.0, 100.0);
  return s;
}

TEST(Series, AppendRejectsTimeTravel) {
  Series s;
  s.append(1.0, 0.0);
  EXPECT_THROW(s.append(0.5, 0.0), std::invalid_argument);
}

TEST(Series, AppendAllowsRepeatedTimes) {
  Series s;
  s.append(1.0, 2.0);
  EXPECT_NO_THROW(s.append(1.0, 3.0));
  EXPECT_EQ(s.size(), 2u);
}

TEST(Series, InterpolationIsLinear) {
  const Series s = ramp();
  EXPECT_DOUBLE_EQ(s.at(5.0), 50.0);
  EXPECT_DOUBLE_EQ(s.at(2.5), 25.0);
}

TEST(Series, InterpolationClampsOutsideRange) {
  const Series s = ramp();
  EXPECT_DOUBLE_EQ(s.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.at(99.0), 100.0);
}

TEST(Series, ResampleKeepsEndpointsAndShape) {
  const Series r = ramp().resampled(11);
  ASSERT_EQ(r.size(), 11u);
  EXPECT_DOUBLE_EQ(r.front().t, 0.0);
  EXPECT_DOUBLE_EQ(r.back().t, 10.0);
  EXPECT_DOUBLE_EQ(r[3].value, 30.0);
}

TEST(Series, MappedTransformsValuesOnly) {
  const Series doubled = ramp().mapped([](double v) { return 2.0 * v; });
  EXPECT_DOUBLE_EQ(doubled.at(5.0), 100.0);
  EXPECT_DOUBLE_EQ(doubled.t_end(), 10.0);
}

TEST(Series, MinMaxValues) {
  Series s;
  s.append(0.0, 3.0);
  s.append(1.0, -2.0);
  s.append(2.0, 7.0);
  EXPECT_DOUBLE_EQ(s.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
}

TEST(Series, MonotonicityPredicates) {
  Series up;
  up.append(0.0, 1.0);
  up.append(1.0, 2.0);
  up.append(2.0, 2.0);
  EXPECT_TRUE(up.is_non_decreasing());

  Series noisy;
  noisy.append(0.0, 1.0);
  noisy.append(1.0, 0.999);
  EXPECT_FALSE(noisy.is_non_decreasing());
  EXPECT_TRUE(noisy.is_non_decreasing(/*eps=*/0.01));
}

}  // namespace
}  // namespace ash
