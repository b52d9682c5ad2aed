#pragma once

/// \file closed_form.h
/// The paper's first-order closed-form BTI model (Eqs. (1)–(4) at the
/// device level; Eqs. (8)–(13) lift it to delay) plus a stateful fast-path
/// ager for cyclic schedules (Eq. (12)'s alpha-parameterized wear/heal
/// cycles).
///
/// Two uses:
///  1. *Model overlay & fitting* — Figures 5–8 show the model curve on top
///     of measurements; `ash::core::ModelFitter` extracts these parameters
///     from measured series (Table 3).
///  2. *Fast simulation path* — the multi-core simulator and the lifetime
///     estimator evolve hundreds of simulated years; the stateful
///     `ClosedFormAger` is O(1) per schedule segment where the trap
///     ensemble is O(traps).
///
/// The stress law under one fixed condition is a value, `StressLaw`: its
/// condition-only factors (six `exp`s) are evaluated once by
/// `ClosedFormModel::stress_law`, and each time point then costs one
/// `log1p`.  `stress_delta_vth`, the ager's stress step and the margin
/// projection (`ash::mc::margin_outlook`) all read the same law.

#include <cmath>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/util/units.h"

namespace ash::bti {

/// Parameters of the closed-form law.  The stress law is
///   DeltaVth(t) = beta(V, T) * ln(1 + t / tau_stress_s)
/// with the multiplicative amplitude of Eq. (2):
///   beta(V, T) = beta_ref_v * exp(-(e0_ev - b_ev_per_v*V)/(kT)) /
///                             exp(-(e0_ev - b_ev_per_v*Vref)/(kTref)).
/// The recovery law after a stress phase of effective duration t1 is
///   remaining(t2) = perm + (1 - perm) *
///                   max(0, 1 - ln(1 + AFe(V,T)*t2 / tau_recovery_s)
///                              / ln(1 + t1 / tau_stress_s))
/// where AFe is the emission acceleration (Arrhenius + negative-bias
/// boost) — the same fast-start, log-tail, never-complete behaviour the
/// paper derives from Eq. (3).
struct ClosedFormParameters {
  /// Amplitude at the stress reference condition, volts per ln-unit.
  Volts beta_ref_v{5.04e-3};
  /// Stress onset time constant (1/C of Eq. (1)).
  Seconds tau_stress_s{120.0};
  /// Amplitude activation energy and voltage factor (Eq. (2)).
  double e0_ev = 0.44;
  double b_ev_per_v = 0.10;
  /// Stress reference condition for the amplitude normalization.
  Volts stress_ref_voltage_v{1.2};
  Kelvin stress_ref_temp_k{383.15};

  /// Capture kinetics used to convert wall-clock stress time into
  /// stress-reference-equivalent time: t_eff = t * duty * AFc(V, T).
  double capture_ea_ev = 0.20;
  double capture_field_accel_per_v = 3.5;
  Volts capture_threshold_voltage_v{0.6};

  /// Median emission/capture time-constant ratio (rho of the TD spectrum);
  /// sets the AC-stress equilibrium amplitude (capture racing concurrent
  /// emission during the unbiased half-cycles).  ~6.8 (with the 0.37 eV
  /// emission barrier) puts the device-level AC/DC shift ratio near 0.27,
  /// i.e. circuit-level AC ~ half of DC.
  double emission_time_ratio = 6.8;

  /// Recovery onset time constant at the passive reference (20 degC, 0 V).
  Seconds tau_recovery_s{816.0};
  /// Emission acceleration constants (shared semantics with TdParameters).
  double emission_ea_ev = 0.37;
  double emission_neg_bias_accel_per_v = 10.0;
  Kelvin recovery_ref_temp_k{293.15};

  /// Fraction of accumulated damage that is irreversible.
  double permanent_ratio = 0.04;

  /// Derive closed-form constants from a trap-ensemble parameter set so the
  /// two layers start mutually consistent (fitting then refines).
  static ClosedFormParameters from_td(const TdParameters& td);

  /// Throws std::invalid_argument if out of domain.
  void validate() const;
};

/// Eq. (1) under one fixed operating condition:
///   DeltaVth(t) = amp * ln(1 + t * duty * afc / tau)
/// with every condition-only factor already evaluated.  Built by
/// `ClosedFormModel::stress_law`.
struct StressLaw {
  /// Gate stress duty clamped to [0, 1].
  double duty = 0.0;
  /// Capture acceleration AFc(V, T); 0 when the condition does not stress
  /// or is biased below the capture threshold.
  double afc = 0.0;
  /// beta(V, T) * ac_amplitude_factor, volts per ln-unit; evaluated only
  /// when afc > 0.
  double amp = 0.0;
  /// Stress onset time constant (1/C of Eq. (1)).
  Seconds tau{120.0};

  /// DeltaVth after stressing a fresh device for t under this condition;
  /// 0 for t <= 0 and for a condition that does not age (afc == 0).
  double delta_vth(Seconds t) const {
    const double t_s = t.value();
    if (t_s <= 0.0 || afc <= 0.0) return 0.0;
    const double t_eff = t_s * duty * afc;
    return amp * std::log1p(t_eff / tau.value());
  }
};

/// Stateless evaluations of the closed-form laws.
class ClosedFormModel {
 public:
  explicit ClosedFormModel(ClosedFormParameters params);

  const ClosedFormParameters& parameters() const { return params_; }

  /// Amplitude beta(V, T) in volts per ln-unit.
  double beta(Volts voltage, Kelvin temp) const;

  /// Emission acceleration factor AFe(V, T) relative to passive recovery.
  double emission_acceleration(Volts voltage, Kelvin temp) const;

  /// Capture (stress-time) acceleration factor AFc(V, T) relative to the
  /// stress reference; 0 below the capture threshold voltage.
  double capture_acceleration(Volts voltage, Kelvin temp) const;

  /// Amplitude de-rating for AC operation (duty < 1): capture racing the
  /// concurrent emission of the unbiased half-cycles.  1 for DC.
  double ac_amplitude_factor(const OperatingCondition& c) const;

  /// The stress law of Eq. (1) under `c`, its condition-only factors
  /// evaluated once.
  StressLaw stress_law(const OperatingCondition& c) const;

  /// DeltaVth after stressing a fresh device for t seconds (Eq. (1)).
  /// `duty` scales the effective stress time (AC operation).  One-shot
  /// form of `stress_law(c).delta_vth(t)`.
  double stress_delta_vth(Seconds t, const OperatingCondition& c) const {
    return stress_law(c).delta_vth(t);
  }

  /// Fraction of a stress phase's DeltaVth remaining after recovering for
  /// t2_s seconds under `c`, given the stress phase lasted t1_equiv_s at
  /// the *stress reference* condition (Eq. (3) rearranged).  In
  /// [permanent_ratio, 1].
  double remaining_fraction(Seconds t1_equiv, Seconds t2,
                            const OperatingCondition& c) const;

 private:
  ClosedFormParameters params_;
};

/// Stateful fast-path ager: evolves a single scalar damage state through an
/// arbitrary piecewise-constant schedule of stress and recovery segments.
///
/// State: reversible damage `v_r` (volts), permanent damage `v_p`, plus the
/// bookkeeping needed to keep consecutive recovery segments on one
/// consistent log-law episode.  Complexity is O(1) per segment, which is
/// what makes decade-long multi-core simulations (Sec. 6) tractable.
class ClosedFormAger {
 public:
  explicit ClosedFormAger(ClosedFormParameters params);

  /// Advance by dt seconds under the given condition.  Stress intervals
  /// (duty > 0) accrue damage along the log law; recovery intervals heal
  /// the reversible part along the recovery law.
  void evolve(const OperatingCondition& c, Seconds dt);

  /// Current total threshold-voltage shift (volts).
  double delta_vth() const { return reversible_v_ + permanent_v_; }
  /// Permanent (unrecoverable) part of the shift.
  double permanent_delta_vth() const { return permanent_v_; }

  /// Restore the fresh state.
  void reset();

  const ClosedFormParameters& parameters() const {
    return model_.parameters();
  }

 private:
  /// Equivalent stress-reference seconds that would produce the current
  /// reversible damage at effective amplitude `beta_v`.
  double equivalent_stress_time(double beta_v) const;

  void advance_stress(const OperatingCondition& c, double dt_s);
  void advance_recovery(const OperatingCondition& c, double dt_s);

  ClosedFormModel model_;
  double reversible_v_ = 0.0;
  double permanent_v_ = 0.0;

  /// Log-width ln(1 + t_eff/tau_s) of the captured trap spectrum after the
  /// most recent stress segment — the denominator of the recovery law.
  double spectrum_ln_ = 0.0;

  // Recovery-episode bookkeeping: equivalent passive-reference seconds of
  // healing accumulated in the current contiguous recovery episode, and the
  // reversible damage / spectrum width captured when the episode began.
  bool in_recovery_episode_ = false;
  double episode_passive_s_ = 0.0;
  double episode_start_reversible_v_ = 0.0;
  double episode_denom_ln_ = 0.0;
};

}  // namespace ash::bti
