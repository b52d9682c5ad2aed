#pragma once

/// \file optimize.h
/// Small derivative-free optimization toolkit used for model parameter
/// extraction (Table 3 of the paper fits beta, A, C of Eq. (10) to measured
/// delay-shift curves) and for the rejuvenation planner's knob search.
///
/// Contents:
///  * `nelder_mead`     — simplex minimizer for smooth low-dimensional
///                        objectives (the fits here are 2–5 dimensional);
///  * `golden_section`  — 1-D unimodal minimizer;
///  * `solve_linear`    — Gaussian elimination with partial pivoting.

#include <functional>
#include <vector>

namespace ash {

/// Objective: maps a parameter vector to a scalar cost.
using Objective = std::function<double(const std::vector<double>&)>;

/// Options controlling the Nelder–Mead run.
struct NelderMeadOptions {
  int max_iterations = 2000;
  /// Converged when the simplex cost spread falls below this.
  double cost_tolerance = 1e-12;
  /// Converged when the simplex parameter spread falls below this.
  double parameter_tolerance = 1e-10;
  /// Initial simplex edge, relative to |x0| per coordinate (absolute floor
  /// `initial_step_floor` for zero coordinates).
  double initial_step_relative = 0.10;
  double initial_step_floor = 1e-3;
};

/// Result of a minimization.
struct OptimizeResult {
  std::vector<double> x;       ///< best parameter vector found
  double cost = 0.0;           ///< objective at x
  int iterations = 0;          ///< iterations consumed
  bool converged = false;      ///< tolerance met before iteration cap
};

/// Derivative-free Nelder–Mead simplex minimization starting at x0.
/// The objective must be finite on the search region it explores; callers
/// enforce domain constraints by returning a large penalty cost.
OptimizeResult nelder_mead(const Objective& f, std::vector<double> x0,
                           const NelderMeadOptions& options = {});

/// Golden-section search for the minimum of a unimodal f on [lo, hi].
/// Returns the abscissa of the minimum to within `tolerance`.
double golden_section(const std::function<double(double)>& f, double lo,
                      double hi, double tolerance = 1e-9);

/// Solve the square system a*x = b in-place via Gaussian elimination with
/// partial pivoting.  `a` is row-major n*n.  Throws std::runtime_error on a
/// (numerically) singular matrix.
std::vector<double> solve_linear(std::vector<double> a, std::vector<double> b);

}  // namespace ash
