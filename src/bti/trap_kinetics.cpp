#include "ash/bti/trap_kinetics.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "ash/bti/acceleration.h"
#include "ash/util/constants.h"
#include "ash/util/exp_batch.h"

#ifdef __x86_64__
#define ASH_TRAP_PASS_AVX2 1
#include <immintrin.h>
#endif

namespace ash::bti {
namespace {

double clamped_duty(const OperatingCondition& c) {
  return std::clamp(c.gate_stress_duty, 0.0, 1.0);
}

bool use_avx2_pass() {
  // The 4-lane pass runs where exp_batch runs its 4-lane exp.
  static const bool avx2 =
      std::string_view(util::exp_batch_path()) == "avx2+fma";
  return avx2;
}

// The scalar forms, over elements [from, n): the whole array on the
// scalar path, the tail past the last multiple of four on the 4-lane one.

void rate_lanes(const TrapKinetics& k, const TrapKinetics::Scalars& s,
                const double* exp_c, const double* exp_e, std::size_t begin,
                std::size_t from, std::size_t n, double* lambda,
                double* p_inf) {
  for (std::size_t i = from; i < n; ++i) {
    const TrapKinetics::Rate r = k.rate(s, exp_c, exp_e, begin + i);
    lambda[i] = r.lambda;
    p_inf[i] = r.p_inf;
  }
}

void relax_lanes(const double* p_inf, const double* d, double* occ,
                 std::size_t from, std::size_t n) {
  for (std::size_t i = from; i < n; ++i) {
    occ[i] = TrapKinetics::relax(occ[i], p_inf[i], d[i]);
  }
}

}  // namespace

const char* trap_pass_path() { return use_avx2_pass() ? "avx2" : "scalar"; }

namespace detail {

// Markstein's theorem (below) needs every step to stay clear of over- and
// underflow.  reciprocals_of() keeps RN(1 / tau) only for tau within
// [2^-400, 2^400] (NaN elsewhere), so a lane whose q = RN(a y) lies within
// [2^-500, 2^500] has a within [2^-900, 2^900], an exact b q in the FMA
// and normal results throughout.  Zero, subnormal, infinite and NaN
// operands all put q outside that range.
constexpr double kTauLo = 0x1p-400;
constexpr double kTauHi = 0x1p400;
constexpr double kQuotientLo = 0x1p-500;
constexpr double kQuotientHi = 0x1p500;

#ifdef ASH_TRAP_PASS_AVX2
// Every __m256d stays inside target-attributed functions, as in
// exp_batch.cpp.  rate_quads runs each lane's products, sum and p_inf
// division in the scalar rate()'s order; its only FMAs are the two of the
// exact quotient below.  relax_avx2's target has no "fma", so its product
// and sum can never be contracted.  Conditionals become masks.

// The lanes where q = RN(a y) lies within [kQuotientLo, kQuotientHi]
// (false for NaN).
__attribute__((target("avx2,fma"), always_inline)) inline __m256d in_range(
    __m256d q) {
  return _mm256_and_pd(
      _mm256_cmp_pd(q, _mm256_set1_pd(kQuotientLo), _CMP_GE_OQ),
      _mm256_cmp_pd(q, _mm256_set1_pd(kQuotientHi), _CMP_LE_OQ));
}

// RN(a / b) in every in_range(q) lane, from y = RN(1 / b) and
// q = RN(a y): q is within an ulp of a / b, the FMA gives r = a - b q
// exactly, and RN(q + r y) is RN(a / b) (Markstein 1990).
__attribute__((target("avx2,fma"), always_inline)) inline __m256d corrected(
    __m256d a, __m256d b, __m256d y, __m256d q) {
  return _mm256_fmadd_pd(_mm256_fnmadd_pd(q, b, a), y, q);
}

// rates_avx2 over the traps [begin, begin + n4), n4 the last multiple of
// four, for one combination of the terms: kCapture where exp_c is set,
// kEmission where exp_e is.
template <bool kCapture, bool kEmission>
__attribute__((target("avx2,fma"))) void rate_quads(
    const TrapKinetics& k, const TrapKinetics::Reciprocals& inv,
    const TrapKinetics::Scalars& s, const double* exp_c, const double* exp_e,
    std::size_t begin, std::size_t n4, double* lambda, double* p_inf) {
  const TrapKinetics::Traps& t = k.traps();
  const double* tau_c = t.tau_capture.data() + begin;
  const double* tau_e = t.tau_emission.data() + begin;
  const double* inv_c = inv.capture.data() + begin;
  const double* inv_e = inv.emission.data() + begin;
  const std::uint8_t* permanent = t.permanent.data() + begin;
  const __m256d duty = _mm256_set1_pd(s.duty);
  const __m256d off_duty = _mm256_set1_pd(1.0 - s.duty);
  const __m256d field = _mm256_set1_pd(s.capture_field);
  const __m256d boost = _mm256_set1_pd(s.emission_bias_boost);
  const __m256d phi = _mm256_set1_pd(s.phi);
  const __m256d zero = _mm256_setzero_pd();
  // With capture off, rate() gives p_inf = (+0 * phi) / lambda, which is
  // +0 in every lane for a finite phi with its sign bit clear.
  const bool p_inf_zero =
      !kCapture && std::isfinite(s.phi) && !std::signbit(s.phi);

  for (std::size_t i = 0; i < n4; i += 4) {
    // Numerators as rate() rounds them, then the quotients.
    __m256d a_c = zero;
    __m256d b_c = zero;
    __m256d rc = zero;
    __m256d exact = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    if constexpr (kCapture) {
      a_c = _mm256_mul_pd(
          duty, _mm256_mul_pd(field, _mm256_loadu_pd(exp_c + begin + i)));
      b_c = _mm256_loadu_pd(tau_c + i);
      const __m256d y = _mm256_loadu_pd(inv_c + i);
      const __m256d q = _mm256_mul_pd(a_c, y);
      exact = in_range(q);
      rc = corrected(a_c, b_c, y, q);
    }
    __m256d a_e = zero;
    __m256d b_e = zero;
    __m256d re = zero;
    if constexpr (kEmission) {
      a_e = _mm256_mul_pd(
          off_duty, _mm256_mul_pd(boost, _mm256_loadu_pd(exp_e + begin + i)));
      b_e = _mm256_loadu_pd(tau_e + i);
      const __m256d y = _mm256_loadu_pd(inv_e + i);
      const __m256d q = _mm256_mul_pd(a_e, y);
      exact = _mm256_and_pd(exact, in_range(q));
      re = corrected(a_e, b_e, y, q);
    }
    if (_mm256_movemask_pd(exact) != 0xF) {
      // The true division in the lanes outside the theorem's range.
      if constexpr (kCapture) {
        rc = _mm256_blendv_pd(_mm256_div_pd(a_c, b_c), rc, exact);
      }
      if constexpr (kEmission) {
        re = _mm256_blendv_pd(_mm256_div_pd(a_e, b_e), re, exact);
      }
    }
    if constexpr (kEmission) {
      std::int32_t flags = 0;
      std::memcpy(&flags, permanent + i, sizeof flags);
      re = _mm256_and_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(
                             _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(flags)),
                             _mm256_setzero_si256())),
                         re);
    }
    const __m256d lam = _mm256_add_pd(rc, re);
    _mm256_storeu_pd(lambda + i, lam);
    if (p_inf_zero) {
      _mm256_storeu_pd(p_inf + i, zero);
    } else {
      const __m256d positive = _mm256_cmp_pd(lam, zero, _CMP_GT_OQ);
      _mm256_storeu_pd(
          p_inf + i,
          _mm256_and_pd(positive, _mm256_div_pd(_mm256_mul_pd(rc, phi), lam)));
    }
  }
}

void rates_avx2(const TrapKinetics& k, const TrapKinetics::Reciprocals& inv,
                const TrapKinetics::Scalars& s, const double* exp_c,
                const double* exp_e, std::size_t begin, std::size_t n,
                double* lambda, double* p_inf) {
  const std::size_t n4 = n & ~std::size_t{3};
  if (exp_c != nullptr && exp_e != nullptr) {
    rate_quads<true, true>(k, inv, s, exp_c, exp_e, begin, n4, lambda, p_inf);
  } else if (exp_c != nullptr) {
    rate_quads<true, false>(k, inv, s, exp_c, exp_e, begin, n4, lambda, p_inf);
  } else if (exp_e != nullptr) {
    rate_quads<false, true>(k, inv, s, exp_c, exp_e, begin, n4, lambda, p_inf);
  } else {
    rate_quads<false, false>(k, inv, s, exp_c, exp_e, begin, n4, lambda,
                             p_inf);
  }
  rate_lanes(k, s, exp_c, exp_e, begin, n4, n, lambda, p_inf);
}

__attribute__((target("avx2"))) void relax_avx2(const double* p_inf,
                                                const double* decay,
                                                double* occ, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d target = _mm256_loadu_pd(p_inf + i);
    const __m256d p = _mm256_loadu_pd(occ + i);
    _mm256_storeu_pd(
        occ + i,
        _mm256_add_pd(target, _mm256_mul_pd(_mm256_sub_pd(p, target),
                                            _mm256_loadu_pd(decay + i))));
  }
  relax_lanes(p_inf, decay, occ, i, n);
}
#else
void rates_avx2(const TrapKinetics& k, const TrapKinetics::Reciprocals&,
                const TrapKinetics::Scalars& s, const double* exp_c,
                const double* exp_e, std::size_t begin, std::size_t n,
                double* lambda, double* p_inf) {
  rate_lanes(k, s, exp_c, exp_e, begin, 0, n, lambda, p_inf);
}

void relax_avx2(const double* p_inf, const double* decay, double* occ,
                std::size_t n) {
  relax_lanes(p_inf, decay, occ, 0, n);
}
#endif

}  // namespace detail

TrapKinetics::TrapKinetics(const TdParameters& params, Traps traps,
                           int rate_slots)
    : params_(params), traps_(std::move(traps)), rate_slots_(rate_slots) {
  params_.validate();
  const std::size_t n = traps_.permanent.size();
  if (traps_.tau_capture.size() != n || traps_.tau_emission.size() != n ||
      traps_.capture_ea.size() != n || traps_.emission_ea.size() != n) {
    throw std::invalid_argument("TrapKinetics: per-trap arrays differ in length");
  }
}

void TrapKinetics::check_occupancies(const std::vector<double>& occ,
                                     std::size_t n) {
  if (occ.size() != n) {
    throw std::invalid_argument("set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument("set_occupancies: occupancy outside [0, 1]");
    }
  }
}

bool TrapKinetics::check_step(const OperatingCondition& c, Seconds dt) const {
  // Every comparison below is false for NaN, so NaN is refused first.
  if (std::isnan(dt.value())) {
    throw std::invalid_argument("bti::evolve: dt is NaN");
  }
  if (dt < Seconds{0.0}) {
    throw std::invalid_argument("bti::evolve: negative dt");
  }
  if (dt == Seconds{0.0}) return false;
  if (!std::isfinite(c.voltage_v.value()) ||
      !std::isfinite(c.temperature_k.value()) ||
      !std::isfinite(c.gate_stress_duty)) {
    throw std::invalid_argument(
        "bti::evolve: non-finite voltage, temperature or duty");
  }
  if (c.voltage_v < params_.min_safe_voltage_v) {
    throw std::invalid_argument(
        "bti::evolve: voltage below pn-junction breakdown limit");
  }
  if (c.temperature_k > params_.max_safe_temp_k) {
    throw std::invalid_argument(
        "bti::evolve: temperature above functional limit");
  }
  return true;
}

TrapKinetics::Scalars TrapKinetics::scalars_for(
    const OperatingCondition& c) const {
  Scalars s;
  s.duty = clamped_duty(c);

  // Gate bias seen during the *unstressed* fraction of the interval: a
  // recovery interval applies its own (possibly negative) bias; the
  // off-phase of an AC stress interval is simply unbiased.
  const double emission_bias_v = s.duty == 0.0 ? c.voltage_v.value() : 0.0;

  s.phi = s.duty > 0.0
              ? occupancy_amplitude(params_, c.voltage_v, c.temperature_k)
              : 0.0;
  s.capture_field =
      c.voltage_v >= params_.capture_threshold_voltage_v
          ? std::exp(params_.capture_field_accel_per_v *
                     (c.voltage_v - params_.stress_ref_voltage_v).value())
          : 0.0;
  s.capture_arr_x = (1.0 / c.temperature_k.value() -
                     1.0 / params_.stress_ref_temp_k.value()) /
                    kBoltzmannEv;
  s.emission_bias_boost = std::exp(
      params_.emission_neg_bias_accel_per_v * std::max(0.0, -emission_bias_v));
  s.emission_arr_x = (1.0 / c.temperature_k.value() -
                      1.0 / params_.recovery_ref_temp_k.value()) /
                     kBoltzmannEv;
  return s;
}

void TrapKinetics::rates(const Scalars& s, const Factors& f,
                         std::size_t begin, std::size_t n, double* lambda,
                         double* p_inf) const {
  if (use_avx2_pass()) {
    detail::rates_avx2(*this, reciprocals_, s, f.capture, f.emission, begin,
                       n, lambda, p_inf);
  } else {
    rate_lanes(*this, s, f.capture, f.emission, begin, 0, n, lambda, p_inf);
  }
}

void TrapKinetics::decay(const double* lambda, Seconds dt, double* out,
                         std::size_t n) {
  util::decay_batch(lambda, dt.value(), out, n);
}

void TrapKinetics::relax_all(const double* p_inf, const double* decay,
                             double* occ, std::size_t n) {
  if (use_avx2_pass()) {
    detail::relax_avx2(p_inf, decay, occ, n);
  } else {
    relax_lanes(p_inf, decay, occ, 0, n);
  }
}

TrapKinetics::Reciprocals TrapKinetics::reciprocals_of(const Traps& traps) {
  Reciprocals inv;
  inv.capture.reserve(traps.tau_capture.size());
  inv.emission.reserve(traps.tau_emission.size());
  // NaN outside [kTauLo, kTauHi] (and for NaN): those lanes fail the
  // 4-lane pass's range check and take the true division.
  const auto reciprocal = [](double tau) {
    return tau >= detail::kTauLo && tau <= detail::kTauHi
               ? 1.0 / tau
               : std::numeric_limits<double>::quiet_NaN();
  };
  for (const double tau : traps.tau_capture) {
    inv.capture.push_back(reciprocal(tau));
  }
  for (const double tau : traps.tau_emission) {
    inv.emission.push_back(reciprocal(tau));
  }
  return inv;
}

const double* TrapKinetics::arrhenius(FactorCache& cache,
                                      const std::vector<double>& ea,
                                      double arr_x) {
  if (cache.valid && cache.arr_x == arr_x) return cache.f.data();
  // ea[i] * -arr_x has the bits of -ea[i] * arr_x.
  cache.f.resize(ea.size());
  util::exp_scaled_batch(ea.data(), -arr_x, cache.f.data(), ea.size());
  cache.arr_x = arr_x;
  cache.valid = true;
  return cache.f.data();
}

TrapKinetics::Factors TrapKinetics::factors_for(const Scalars& s) {
  // Built on the first evolve, not with the draws: a core that never runs
  // (a lab kept for its setup) holds no reciprocals.
  if (reciprocals_.capture.size() != traps_.tau_capture.size()) {
    reciprocals_ = reciprocals_of(traps_);
  }
  // A zero duty multiplier zeroes the whole term exactly (`duty * f` is
  // +0.0 for a finite factor), so its factor array is never computed.
  return {s.duty > 0.0 ? arrhenius(capture_factors_, traps_.capture_ea,
                                   s.capture_arr_x)
                       : nullptr,
          s.duty < 1.0 ? arrhenius(emission_factors_, traps_.emission_ea,
                                   s.emission_arr_x)
                       : nullptr};
}

int TrapKinetics::slot_of(const OperatingCondition& c) const {
  const double duty = clamped_duty(c);
  for (std::size_t k = 0; k < rates_.size(); ++k) {
    const RateEntry& e = rates_[k];
    if (e.valid && e.voltage == c.voltage_v &&
        e.temperature == c.temperature_k && e.duty == duty) {
      return static_cast<int>(k);
    }
  }
  return -1;
}

const TrapKinetics::RateEntry& TrapKinetics::entry_for(
    const OperatingCondition& c, Seconds dt) {
  const int slot = slot_of(c);
  if (slot >= 0 && rates_[static_cast<std::size_t>(slot)].decay_dt == dt) {
    return rates_[static_cast<std::size_t>(slot)];
  }

  const std::size_t n = traps_.permanent.size();
  RateEntry* e = nullptr;
  if (slot >= 0) {
    e = &rates_[static_cast<std::size_t>(slot)];
  } else {
    if (rates_.empty()) rates_.resize(static_cast<std::size_t>(rate_slots_));
    e = &rates_[static_cast<std::size_t>(rates_next_)];
    rates_next_ = (rates_next_ + 1) % rate_slots_;

    const Scalars s = scalars_for(c);
    const Factors f = factors_for(s);
    e->lambda.resize(n);
    e->p_inf.resize(n);
    e->decay.resize(n);
    rates(s, f, 0, n, e->lambda.data(), e->p_inf.data());
    e->voltage = c.voltage_v;
    e->temperature = c.temperature_k;
    e->duty = s.duty;
    e->valid = true;
  }

  // Decay factors for this dt (a fresh entry or a new step size).
  decay(e->lambda.data(), dt, e->decay.data(), n);
  e->decay_dt = dt;
  return *e;
}

void TrapKinetics::step(const OperatingCondition& c, Seconds dt,
                        double* occ) {
  if (cached(c) || recurring_miss(c)) {
    apply(entry_for(c, dt), occ);
  } else {
    transient_step(c, dt, occ);
  }
}

bool TrapKinetics::recurring_miss(const OperatingCondition& c) {
  const double duty = clamped_duty(c);
  const bool recurring = last_miss_valid_ &&
                         last_miss_voltage_ == c.voltage_v &&
                         last_miss_temp_ == c.temperature_k &&
                         last_miss_duty_ == duty;
  last_miss_voltage_ = c.voltage_v;
  last_miss_temp_ = c.temperature_k;
  last_miss_duty_ = duty;
  last_miss_valid_ = !recurring;
  return recurring;
}

void TrapKinetics::apply(const RateEntry& e, double* occ) {
  relax_all(e.p_inf.data(), e.decay.data(), occ, e.p_inf.size());
}

void TrapKinetics::transient_step(const OperatingCondition& c, Seconds dt,
                                  double* occ) {
  const Scalars s = scalars_for(c);
  const Factors f = factors_for(s);

  // Nothing is written except the occupancies: rates stay in a small
  // L1-resident block buffer.  Campaigns whose instruments drift (a unique
  // condition every interval) spend their whole evolve budget here, and
  // the avoided memo stores, and their later cache evictions across a
  // thousand-device chip, are the dominant cost.  The rate law, the batched
  // decay and the update each run as one pass over the block, four lanes
  // at a time where the CPU allows it.
  const std::size_t n = traps_.permanent.size();
  constexpr std::size_t kBlock = 128;
  double lam[kBlock];
  double pinf[kBlock];
  double d[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    rates(s, f, base, len, lam, pinf);
    decay(lam, dt, d, len);
    relax_all(pinf, d, occ + base, len);
  }
}

}  // namespace ash::bti
