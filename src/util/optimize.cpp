#include "ash/util/optimize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ash {

namespace {

/// Spread of simplex costs (max - min).
double cost_spread(const std::vector<double>& costs) {
  const auto [mn, mx] = std::minmax_element(costs.begin(), costs.end());
  return *mx - *mn;
}

/// Max L-inf distance of any vertex from the best vertex.
double parameter_spread(const std::vector<std::vector<double>>& simplex,
                        std::size_t best) {
  double spread = 0.0;
  for (const auto& v : simplex) {
    for (std::size_t j = 0; j < v.size(); ++j) {
      spread = std::max(spread, std::abs(v[j] - simplex[best][j]));
    }
  }
  return spread;
}

}  // namespace

OptimizeResult nelder_mead(const Objective& f, std::vector<double> x0,
                           const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  assert(n >= 1);

  // Standard NM coefficients.
  constexpr double kReflect = 1.0;
  constexpr double kExpand = 2.0;
  constexpr double kContract = 0.5;
  constexpr double kShrink = 0.5;

  // Build the initial simplex around x0.
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) {
    double step = options.initial_step_relative * std::abs(x0[i]);
    if (step < options.initial_step_floor) step = options.initial_step_floor;
    simplex[i + 1][i] += step;
  }
  std::vector<double> costs(n + 1);
  for (std::size_t i = 0; i <= n; ++i) costs[i] = f(simplex[i]);

  OptimizeResult result;
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Order: best, ..., worst.
    std::vector<std::size_t> order(n + 1);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return costs[a] < costs[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    if (cost_spread(costs) < options.cost_tolerance &&
        parameter_spread(simplex, best) < options.parameter_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all vertices except the worst.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t j = 0; j < n; ++j) centroid[j] += simplex[i][j];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double coeff) {
      std::vector<double> p(n);
      for (std::size_t j = 0; j < n; ++j) {
        p[j] = centroid[j] + coeff * (simplex[worst][j] - centroid[j]);
      }
      return p;
    };

    const auto reflected = blend(-kReflect);
    const double f_reflected = f(reflected);

    if (f_reflected < costs[best]) {
      const auto expanded = blend(-kExpand);
      const double f_expanded = f(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        costs[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        costs[worst] = f_reflected;
      }
    } else if (f_reflected < costs[second_worst]) {
      simplex[worst] = reflected;
      costs[worst] = f_reflected;
    } else {
      // Contract toward the better of (worst, reflected).
      const bool outside = f_reflected < costs[worst];
      const auto contracted = blend(outside ? -kContract : kContract);
      const double f_contracted = f(contracted);
      const double f_compare = outside ? f_reflected : costs[worst];
      if (f_contracted < f_compare) {
        simplex[worst] = contracted;
        costs[worst] = f_contracted;
      } else {
        // Shrink everything toward the best vertex.
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == best) continue;
          for (std::size_t j = 0; j < n; ++j) {
            simplex[i][j] = simplex[best][j] +
                            kShrink * (simplex[i][j] - simplex[best][j]);
          }
          costs[i] = f(simplex[i]);
        }
      }
    }
  }

  const auto best_it = std::min_element(costs.begin(), costs.end());
  const auto best_idx =
      static_cast<std::size_t>(std::distance(costs.begin(), best_it));
  result.x = simplex[best_idx];
  result.cost = costs[best_idx];
  result.iterations = iter;
  return result;
}

double golden_section(const std::function<double(double)>& f, double lo,
                      double hi, double tolerance) {
  assert(lo <= hi);
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo;
  double b = hi;
  double c = b - kInvPhi * (b - a);
  double d = a + kInvPhi * (b - a);
  double fc = f(c);
  double fd = f(d);
  while (b - a > tolerance) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - kInvPhi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + kInvPhi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

std::vector<double> solve_linear(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  assert(a.size() == n * n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    if (std::abs(a[pivot * n + col]) < 1e-14) {
      throw std::runtime_error("solve_linear: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[pivot * n + j], a[col * n + j]);
      }
      std::swap(b[pivot], b[col]);
    }
    // Eliminate below.
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row * n + col] / a[col * n + col];
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        a[row * n + j] -= factor * a[col * n + j];
      }
      b[row] -= factor * b[col];
    }
  }
  // Back-substitute.
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i * n + j] * x[j];
    x[i] = acc / a[i * n + i];
  }
  return x;
}

}  // namespace ash
