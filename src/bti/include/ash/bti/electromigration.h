#pragma once

/// \file electromigration.h
/// Electromigration (EM) interconnect wear — the aging mechanism the paper
/// lists as a limitation of its first-order model ("ignores other aging
/// effects, such as Electromigration").
///
/// EM is everything BTI recovery is not: driven by *current*, not bias;
/// cumulative and irreversible; thermally accelerated with a large
/// activation energy.  Modeling it alongside BTI answers the natural
/// question about accelerated self-healing: does hot rejuvenation burn EM
/// lifetime?  (Answer, quantified by Ablation D of `ash_lab reproduce`:
/// no — power-gated sleep carries no current, so EM stops during
/// recovery; sleep schedules actually *extend* EM life through their
/// duty-cycle reduction.)
///
/// The model integrates Black's-equation-consistent damage:
///   d(drift)/dt = rate_ref * (J/J_ref)^n * exp(-(Ea/k)(1/T - 1/Tref))
/// where drift is the fractional resistance increase of the worst
/// interconnect segment; the segment fails (void) past `failure_drift`.

#include "ash/bti/parameters.h"
#include "ash/util/units.h"

namespace ash::bti {

/// EM physics constants.
struct EmParameters {
  /// Activation energy (eV); Cu interconnect ~0.85-0.9.
  double ea_ev = 0.9;
  /// Black's current-density exponent n.
  double current_exponent = 2.0;
  /// Reference conditions at which `drift_rate_per_s` is specified:
  /// nominal switching current density at a typical qual temperature.
  Kelvin ref_temp_k{378.15};  // 105 degC
  /// Fractional resistance drift per second at reference conditions.
  /// Calibrated for ~10 years to failure at continuous nominal current
  /// and 105 degC: 0.10 / (10 * 3.156e7 s).
  double drift_rate_per_s = 3.17e-10;
  /// Fractional resistance increase at which the segment is considered
  /// failed (void nucleation / EOL criterion).
  double failure_drift = 0.10;

  /// Throws std::invalid_argument when out of domain.
  void validate() const;
};

/// One interconnect segment's cumulative EM state.
class EmInterconnect {
 public:
  explicit EmInterconnect(const EmParameters& params);

  /// Accumulate EM damage over dt seconds at the given current-density
  /// ratio (J/J_ref; 0 when power-gated, ~1 at nominal switching, >1 for
  /// overdriven GNOMO-style operation) and metal temperature.
  void evolve(double current_density_ratio, Kelvin temp, Seconds dt);

  /// Fractional resistance increase accumulated so far.
  double drift() const { return drift_; }

  /// True once the failure criterion is exceeded.
  bool failed() const { return drift_ >= params_.failure_drift; }

  /// Remaining-life estimate (seconds) if operated at the given condition
  /// from now on; infinity when J = 0.
  Seconds time_to_failure(double current_density_ratio, Kelvin temp) const;

  /// Instantaneous drift rate (1/s) at a condition.
  double drift_rate(double current_density_ratio, Kelvin temp) const;

  const EmParameters& parameters() const { return params_; }

 private:
  EmParameters params_;
  double drift_ = 0.0;
};

}  // namespace ash::bti
