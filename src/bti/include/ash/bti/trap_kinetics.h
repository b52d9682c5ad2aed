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
/// which has no time-step error: a 24-hour phase is one update.  The rate
/// law and the update each exist in two forms: the scalar `rate()` and
/// `relax()`, and the 4-lane AVX2 pass of `detail::rates_avx2` and
/// `relax_avx2`, which runs the same IEEE operations in the same order and
/// picks the results of the conditionals with masks.  FMA only in the
/// quotient correction; the update is never fused.  The pass divides by
/// the time constants without a divider: each trap keeps y = RN(1 / tau),
/// and with q = RN(a y) and r = a - tau q (exact in an FMA), RN(q + r y)
/// is exactly RN(a / tau) (Markstein's theorem).  Its guard: a lane whose
/// q lies outside [2^-500, 2^500], or whose tau lies outside
/// [2^-400, 2^400] (its reciprocal is then NaN), takes the true division;
/// zero, subnormal, infinite and NaN operands all land there.  The pass
/// runs where util::exp_batch runs its 4-lane exp, once chosen per process
/// (`trap_pass_path()`); lanes past the last multiple of four and every
/// other host take the scalar form.  tests/bti/trap_pass_test.cpp holds
/// the two forms bit-equal.  The exponentials (the Arrhenius factors, and
/// `decay()`'s exp(-lambda * dt) with its two rules) all run through
/// util::exp_batch's one kernel, whose lanes carry the bits of std::exp.
/// Every evolve path of both engines goes through these, so a batch
/// trajectory is bit-identical to solo runs by construction.

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

  /// RN(1 / tau) of every trap, each from one division (NaN for a tau
  /// outside [2^-400, 2^400]): the 4-lane rate law's exact quotients
  /// multiply by these.
  struct Reciprocals {
    std::vector<double> capture;
    std::vector<double> emission;
  };
  static Reciprocals reciprocals_of(const Traps& traps);

  /// One trap's total rate lambda = rc + re (1/s) and equilibrium
  /// occupancy.  lambda <= 0 carries p_inf = 0, and its decay is then 1,
  /// so the update leaves the occupancy bit-exactly unchanged.
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

  const TdParameters& parameters() const { return params_; }
  const Traps& traps() const { return traps_; }

  /// The single condition check of every evolve.  Throws
  /// std::invalid_argument for a NaN or negative dt, a non-finite voltage,
  /// temperature or duty, a voltage below the breakdown limit or a
  /// temperature above the functional limit.  Returns false when dt == 0
  /// (the step is a no-op).  A +inf dt is valid: it relaxes every trap to
  /// its equilibrium.
  bool check_step(const OperatingCondition& condition, Seconds dt) const;

  Scalars scalars_for(const OperatingCondition& condition) const;

  /// The check of every `set_occupancies`: throws std::invalid_argument
  /// unless `occ` holds n values in [0, 1].
  static void check_occupancies(const std::vector<double>& occ, std::size_t n);

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

  /// out[i] = exp(-lambda[i] * dt) for i < n: 1 where lambda <= 0, 0
  /// where lambda * dt > 700 (exp underflows there anyway), otherwise the
  /// bits of std::exp (util::decay_batch).  `out` must not alias
  /// `lambda`.
  static void decay(const double* lambda, Seconds dt, double* out,
                    std::size_t n);

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

  struct Factors {
    const double* capture;
    const double* emission;
  };
  /// rate() of traps [begin, begin + n) into lambda[0..n) / p_inf[0..n).
  void rates(const Scalars& s, const Factors& f, std::size_t begin,
             std::size_t n, double* lambda, double* p_inf) const;
  /// relax() of occ[i] toward p_inf[i] by decay[i] for i < n.
  static void relax_all(const double* p_inf, const double* decay,
                        double* occ, std::size_t n);

  /// Advance `occ` by dt without writing any memo arrays: the rates live
  /// in a small L1-resident block buffer.  For one-shot conditions (a
  /// drifting chamber), where the avoided stores dominate the cost.
  void transient_step(const OperatingCondition& condition, Seconds dt,
                      double* occ);

  /// True when `condition` also missed the cache on the previous miss and
  /// was not promoted then; records it as the latest miss otherwise.
  bool recurring_miss(const OperatingCondition& condition);

  /// Temperature-keyed memo of the per-trap Arrhenius factors
  /// exp(-Ea_i * arr_x) of the most recent temperature.  Voltage and duty
  /// enter the rates only through the scalars, so the array is reusable
  /// across conditions sharing a temperature (a measurement wake and the
  /// following aging step).
  struct FactorCache {
    double arr_x = 0.0;
    bool valid = false;
    std::vector<double> f;
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
  /// Built on the first factors_for(), beside the factor arrays.
  Reciprocals reciprocals_;
};

/// The path of TrapKinetics' rate law, decay rules and update in this
/// process: "avx2" (the 4-lane pass) or "scalar".
const char* trap_pass_path();

namespace detail {
/// The 4-lane pass, tails included: rates_avx2 is rate() of traps
/// [begin, begin + n) of `k` into lambda[0..n) / p_inf[0..n), with `inv`
/// the reciprocals_of() `k`'s traps; relax_avx2 is relax() of occ[i]
/// toward p_inf[i] by decay[i].  Callable only when trap_pass_path() is
/// "avx2"; exposed for the tests.
void rates_avx2(const TrapKinetics& k, const TrapKinetics::Reciprocals& inv,
                const TrapKinetics::Scalars& s, const double* exp_c,
                const double* exp_e, std::size_t begin, std::size_t n,
                double* lambda, double* p_inf);
void relax_avx2(const double* p_inf, const double* decay, double* occ,
                std::size_t n);
}  // namespace detail

}  // namespace ash::bti
