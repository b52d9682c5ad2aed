#include "ash/util/optimize.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

namespace ash {
namespace {

TEST(NelderMead, MinimizesShiftedQuadratic) {
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.5) * (x[1] + 1.5);
  };
  const auto result = nelder_mead(f, {0.0, 0.0});
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.x[0], 3.0, 1e-4);
  EXPECT_NEAR(result.x[1], -1.5, 1e-4);
  EXPECT_NEAR(result.cost, 0.0, 1e-8);
}

TEST(NelderMead, MinimizesRosenbrock) {
  const Objective f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions options;
  options.max_iterations = 20000;
  const auto result = nelder_mead(f, {-1.2, 1.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
  EXPECT_NEAR(result.x[1], 1.0, 1e-3);
}

TEST(NelderMead, OneDimensionalParabola) {
  const Objective f = [](const std::vector<double>& x) {
    return (x[0] - 7.0) * (x[0] - 7.0) + 2.0;
  };
  const auto result = nelder_mead(f, {0.0});
  EXPECT_NEAR(result.x[0], 7.0, 1e-4);
  EXPECT_NEAR(result.cost, 2.0, 1e-8);
}

TEST(NelderMead, RespectsPenaltyConstraints) {
  // Minimum of (x-2)^2 subject to x <= 1 (penalized): expect x -> 1.
  const Objective f = [](const std::vector<double>& x) {
    if (x[0] > 1.0) return 1e6 + x[0];
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  const auto result = nelder_mead(f, {0.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-3);
}

TEST(GoldenSection, FindsParabolaMinimum) {
  const double x =
      golden_section([](double v) { return (v - 2.5) * (v - 2.5); }, 0.0, 10.0);
  EXPECT_NEAR(x, 2.5, 1e-6);
}

TEST(GoldenSection, HandlesBoundaryMinimum) {
  const double x = golden_section([](double v) { return v; }, 1.0, 4.0);
  EXPECT_NEAR(x, 1.0, 1e-6);
}

TEST(SolveLinear, SolvesTwoByTwo) {
  // [2 1; 1 3] x = [5; 10]  =>  x = [1; 3].
  const auto x = solve_linear({2.0, 1.0, 1.0, 3.0}, {5.0, 10.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, RequiresPivoting) {
  // Leading zero forces a row swap: [0 1; 1 0] x = [2; 3].
  const auto x = solve_linear({0.0, 1.0, 1.0, 0.0}, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, ThrowsOnSingular) {
  EXPECT_THROW(solve_linear({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}),
               std::runtime_error);
}

}  // namespace
}  // namespace ash
