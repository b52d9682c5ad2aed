#pragma once

/// \file reaction_diffusion.h
/// The classic Reaction-Diffusion (RD) NBTI model — the TD model's
/// historical rival, included as a scientific control.
///
/// RD attributes NBTI to interface-bond breaking with hydrogen diffusing
/// away: stress follows a power law DeltaVth ~ t^n (n ~ 1/6 for H2
/// diffusion), and recovery is the *universal* back-diffusion curve
///   remaining(t2) = 1 / (1 + sqrt(xi * t2 / t1)),
/// a function of t2/t1 only.  That universality is RD's testable failure
/// mode against this paper's data: measured recovery depends strongly on
/// the sleep *conditions* (negative bias, temperature), which RD has no
/// knob for — exactly the argument of ref. [15] ("Physics Matters") for
/// preferring Trapping/Detrapping.  `ash_lab reproduce` (Ablation L) runs
/// the comparison on the virtual campaign.

#include "ash/bti/condition.h"
#include "ash/util/series.h"
#include "ash/util/units.h"

namespace ash::bti {

/// RD model constants.
struct RdParameters {
  /// Amplitude at the stress reference condition: DeltaVth at t = 1 s
  /// would be amplitude_ref_v * 1^n; calibrate/fit against data.
  Volts amplitude_ref_v{3.0e-3};
  /// Power-law exponent n; 1/6 for neutral H2 diffusion, 1/4 for atomic H.
  double time_exponent = 1.0 / 6.0;
  /// Universal-recovery shape constant xi (~0.5 in the literature).
  double xi = 0.5;
  /// Amplitude activation/field constants (same form as the TD model's
  /// Eq. (2) amplitude so stress-side fits are comparable).
  double e0_ev = 0.44;
  double b_ev_per_v = 0.10;
  Volts stress_ref_voltage_v{1.2};
  Kelvin stress_ref_temp_k{383.15};

  /// Throws std::invalid_argument when out of domain.
  void validate() const;
};

/// Stateless RD evaluations, mirroring ClosedFormModel's interface subset
/// so the two models can be raced on identical data.
class RdModel {
 public:
  explicit RdModel(RdParameters params);

  const RdParameters& parameters() const { return params_; }

  /// Amplitude at (V, T), normalized to amplitude_ref_v at the reference.
  double amplitude(Volts voltage, Kelvin temp) const;

  /// DeltaVth after stressing a fresh device for t_s seconds.
  double stress_delta_vth(Seconds t, const OperatingCondition& c) const;

  /// Fraction of the stress damage remaining after t2_s of recovery
  /// following a t1_s stress.  NOTE: deliberately independent of the
  /// recovery condition — that is the RD physics under test.
  double remaining_fraction(Seconds t1, Seconds t2) const;

 private:
  RdParameters params_;
};

/// Least-squares fit of the RD amplitude (exponent fixed) to a measured
/// DeltaTd-vs-time stress series; returns the fitted amplitude (same
/// units as the series values at t = 1 s) and the R^2 of the fit.
struct RdStressFit {
  double amplitude = 0.0;
  double time_exponent = 0.0;
  double r_squared = 0.0;
};

/// Fit amplitude and (optionally) the exponent of the RD stress law to a
/// series; `fit_exponent` false pins n to params.time_exponent.
RdStressFit fit_rd_stress(const ash::Series& delay_change,
                          const RdParameters& params,
                          bool fit_exponent = false);

}  // namespace ash::bti
