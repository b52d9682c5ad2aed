#pragma once

/// \file trap_kinetics.h
/// The kinetics core of the Trapping/Detrapping model: one trap
/// population's rate law and rate caches, shared by the solo
/// `TrapEnsemble` (a class of one) and every trap class of
/// `BatchEnsemble` (DESIGN.md Sec. 8).
///
/// Each trap's expected occupancy p obeys dp/dt = rc (phi - p) - re p
/// under a piecewise-constant condition: rc is the duty-scaled,
/// field/Arrhenius-accelerated capture rate, re the emission rate (zero
/// for a permanent trap) and phi the equilibrium amplitude (Eq. (2)), so
/// capture drives p toward phi, not 1.  Over an interval dt the exact
/// solution is
///
///     p' = p_inf + (p - p_inf) * exp(-lambda * dt),
///     lambda = rc + re,  p_inf = rc * phi / lambda,
///
/// which has no time-step error: a 24-hour phase is one update.  `rate()`
/// is the only place lambda and p_inf are computed, `decay()` the only
/// place exp(-lambda * dt) is, and `relax()` the only place the update
/// is applied.  Every evolve path of both engines goes through them, so a
/// batch trajectory is bit-identical to solo runs by construction.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"

namespace ash::bti {

class TrapKinetics {
 public:
  /// The immutable per-trap draws, one entry per trap.
  struct Traps {
    std::vector<double> tau_capture;   ///< at the stress reference (s)
    std::vector<double> tau_emission;  ///< at the recovery reference (s)
    std::vector<double> capture_ea;    ///< activation energy (eV)
    std::vector<double> emission_ea;   ///< activation energy (eV)
    std::vector<std::uint8_t> permanent;  ///< 1: never emits
    bool operator==(const Traps&) const = default;
  };

  /// Condition-level scalars of the rate law, hoisted out of the per-trap
  /// loops.
  struct Scalars {
    double duty;
    double phi;
    double capture_field;
    double capture_arr_x;
    double emission_bias_boost;
    double emission_arr_x;
  };

  /// One trap's total rate lambda = rc + re (1/s) and equilibrium
  /// occupancy.  lambda <= 0 carries p_inf = 0, and decay() is then 1, so
  /// the update leaves the occupancy bit-exactly unchanged.
  struct Rate {
    double lambda;
    double p_inf;
  };

  /// Per-condition memo: the dt-independent lambda / p_inf arrays plus the
  /// decay factors for the most recent dt.
  struct RateEntry {
    Volts voltage{0.0};
    Kelvin temperature{0.0};
    double duty = 0.0;
    bool valid = false;
    std::vector<double> lambda;
    std::vector<double> p_inf;
    Seconds decay_dt{-1.0};
    std::vector<double> decay;
  };

  /// A core over `traps` with a round-robin rate cache of `rate_slots`
  /// conditions.  Throws std::invalid_argument on invalid parameters or on
  /// per-trap arrays of unequal length.
  TrapKinetics(const TdParameters& params, Traps traps, int rate_slots);
  /// A fresh core over `source`'s parameters and trap arrays (no cached
  /// rates) with its own cache depth.
  TrapKinetics(const TrapKinetics& source, int rate_slots);

  const TdParameters& parameters() const { return params_; }
  const Traps& traps() const { return traps_; }

  /// Identical kinetics parameters (every field except delta_vth_mean_v,
  /// which scales only the per-trap shifts) and identical trap draws: the
  /// two cores compute bit-identical rates for every condition.
  bool same_kinetics(const TrapKinetics& other) const;

  /// The single condition check of every evolve.  Throws
  /// std::invalid_argument for a NaN or negative dt, a non-finite voltage,
  /// temperature or duty, a voltage below the breakdown limit or a
  /// temperature above the functional limit.  Returns false when dt == 0
  /// (the step is a no-op).  A +inf dt is valid: it relaxes every trap to
  /// its equilibrium.
  bool check_step(const OperatingCondition& condition, Seconds dt) const;

  Scalars scalars_for(const OperatingCondition& condition) const;

  /// The rate law of trap i.  `exp_c` / `exp_e` are the condition's
  /// Arrhenius factor arrays, or null when the duty makes that term
  /// exactly zero (duty == 0 for capture, duty == 1 for emission).
  Rate rate(const Scalars& s, const double* exp_c, const double* exp_e,
            std::size_t i) const {
    const double rc =
        exp_c != nullptr
            ? s.duty * (s.capture_field * exp_c[i]) / traps_.tau_capture[i]
            : 0.0;
    const double re =
        exp_e != nullptr && traps_.permanent[i] == 0
            ? (1.0 - s.duty) * (s.emission_bias_boost * exp_e[i]) /
                  traps_.tau_emission[i]
            : 0.0;
    const double lambda = rc + re;
    return {lambda, lambda > 0.0 ? rc * s.phi / lambda : 0.0};
  }

  /// exp(-lambda * dt), short-circuited where exp underflows anyway.
  static double decay(double lambda, Seconds dt) {
    const double x = lambda * dt.value();
    return lambda <= 0.0 ? 1.0 : (x > 700.0 ? 0.0 : std::exp(-x));
  }

  /// The exact update of one occupancy.
  static double relax(double p, double p_inf, double decay) {
    return p_inf + (p - p_inf) * decay;
  }

  /// Whether the rate cache holds `condition`.
  bool cached(const OperatingCondition& condition) const {
    return slot_of(condition) >= 0;
  }

  /// Advance `occ` (one value per trap) by dt under the one cache policy
  /// of both engines.  A condition that misses the rate cache twice in a
  /// row (a fixed-step sweep, a benchmark, a multicore mission) is
  /// promoted into it, and later steps with the same dt are one exp-free
  /// sweep; a one-shot condition (drifting instruments) takes the
  /// store-free transient step.  Misses are keyed like the cache, on the
  /// clamped duty.  Both paths apply the same relax(p, p_inf, decay), so
  /// the policy never changes a bit of the result.
  void step(const OperatingCondition& condition, Seconds dt, double* occ);

 private:
  /// The cached rates of `condition` with decay factors for dt, computed
  /// on a miss (evicting the oldest slot) or a dt change.  The reference
  /// stays valid until the next entry_for() call.
  const RateEntry& entry_for(const OperatingCondition& condition, Seconds dt);

  /// Advance `occ` by one cached entry: one exp-free multiply-add sweep.
  static void apply(const RateEntry& entry, double* occ);

  /// Advance `occ` by dt without writing any memo arrays: the rates live
  /// in a small L1-resident block buffer.  For one-shot conditions (a
  /// drifting chamber), where the avoided stores dominate the cost.
  void transient_step(const OperatingCondition& condition, Seconds dt,
                      double* occ);

  /// True when `condition` also missed the cache on the previous miss and
  /// was not promoted then; records it as the latest miss otherwise.
  bool recurring_miss(const OperatingCondition& condition);

  /// Temperature-keyed memo of the per-trap Arrhenius factors
  /// exp(-Ea_i * arr_x).  Voltage and duty enter the rates only through
  /// the scalars, so these arrays are reusable across conditions sharing
  /// a temperature (a measurement wake and the following aging step).
  struct FactorCache {
    struct Slot {
      double arr_x = 0.0;
      bool valid = false;
      std::vector<double> f;
    };
    static constexpr int kSlots = 2;
    Slot slots[kSlots];
    int next = 0;
  };

  struct Factors {
    const double* capture;
    const double* emission;
  };
  /// The Arrhenius factor arrays of a condition (null where the duty
  /// zeroes the term), memoized per temperature.
  Factors factors_for(const Scalars& s);
  static const double* arrhenius(FactorCache& cache,
                                 const std::vector<double>& ea, double arr_x);

  int slot_of(const OperatingCondition& condition) const;

  TdParameters params_;
  Traps traps_;

  int rate_slots_;
  /// Allocated on the first entry_for(): most solo ensembles only ever
  /// see one-shot conditions.
  std::vector<RateEntry> rates_;
  int rates_next_ = 0;

  /// Key of the most recent unpromoted miss.
  Volts last_miss_voltage_{0.0};
  Kelvin last_miss_temp_{0.0};
  double last_miss_duty_ = 0.0;
  bool last_miss_valid_ = false;

  FactorCache capture_factors_;
  FactorCache emission_factors_;
};

}  // namespace ash::bti
