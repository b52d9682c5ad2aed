#include "ash/bti/trap_kinetics.h"

#include <algorithm>
#include <cstring>
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

// decay()'s rules: a lane they settle hands exp_batch the placeholder -1
// (a cheap main-path exp) and is overwritten afterwards.
void decay_args(const double* lambda, double t, double* out, std::size_t from,
                std::size_t n) {
  for (std::size_t i = from; i < n; ++i) {
    const double x = lambda[i] * t;
    out[i] = lambda[i] <= 0.0 || x > 700.0 ? -1.0 : -x;
  }
}

void decay_settle(const double* lambda, double t, double* out,
                  std::size_t from, std::size_t n) {
  for (std::size_t i = from; i < n; ++i) {
    out[i] = lambda[i] <= 0.0 ? 1.0 : (lambda[i] * t > 700.0 ? 0.0 : out[i]);
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

#ifdef ASH_TRAP_PASS_AVX2
// Every __m256d stays inside its own target-attributed function, as in
// exp_batch.cpp.  The target is "avx2" without "fma", so no product and
// sum below can be contracted: each lane rounds exactly like the scalar
// rate(), decay() and relax().  Every division runs in every lane and a
// mask picks the result, as the scalar conditionals do.

__attribute__((target("avx2"))) void rates_avx2(
    const TrapKinetics& k, const TrapKinetics::Scalars& s, const double* exp_c,
    const double* exp_e, std::size_t begin, std::size_t n, double* lambda,
    double* p_inf) {
  const TrapKinetics::Traps& t = k.traps();
  const double* tau_c = t.tau_capture.data() + begin;
  const double* tau_e = t.tau_emission.data() + begin;
  const std::uint8_t* permanent = t.permanent.data() + begin;
  const __m256d duty = _mm256_set1_pd(s.duty);
  const __m256d off_duty = _mm256_set1_pd(1.0 - s.duty);
  const __m256d field = _mm256_set1_pd(s.capture_field);
  const __m256d boost = _mm256_set1_pd(s.emission_bias_boost);
  const __m256d phi = _mm256_set1_pd(s.phi);
  const __m256d zero = _mm256_setzero_pd();

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d rc = zero;
    if (exp_c != nullptr) {
      rc = _mm256_div_pd(
          _mm256_mul_pd(duty, _mm256_mul_pd(
                                  field, _mm256_loadu_pd(exp_c + begin + i))),
          _mm256_loadu_pd(tau_c + i));
    }
    __m256d re = zero;
    if (exp_e != nullptr) {
      std::int32_t flags = 0;
      std::memcpy(&flags, permanent + i, sizeof flags);
      const __m256d emits = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(flags)),
          _mm256_setzero_si256()));
      re = _mm256_and_pd(
          emits,
          _mm256_div_pd(
              _mm256_mul_pd(off_duty,
                            _mm256_mul_pd(boost,
                                          _mm256_loadu_pd(exp_e + begin + i))),
              _mm256_loadu_pd(tau_e + i)));
    }
    const __m256d lam = _mm256_add_pd(rc, re);
    const __m256d positive = _mm256_cmp_pd(lam, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(lambda + i, lam);
    _mm256_storeu_pd(
        p_inf + i,
        _mm256_and_pd(positive, _mm256_div_pd(_mm256_mul_pd(rc, phi), lam)));
  }
  rate_lanes(k, s, exp_c, exp_e, begin, i, n, lambda, p_inf);
}

__attribute__((target("avx2"))) void decay_avx2(const double* lambda,
                                                Seconds dt, double* out,
                                                std::size_t n) {
  const double t = dt.value();
  const __m256d tv = _mm256_set1_pd(t);
  const __m256d limit = _mm256_set1_pd(700.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d minus_one = _mm256_set1_pd(-1.0);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const std::size_t n4 = n & ~std::size_t{3};

  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d lam = _mm256_loadu_pd(lambda + i);
    const __m256d x = _mm256_mul_pd(lam, tv);
    const __m256d settled = _mm256_or_pd(_mm256_cmp_pd(lam, zero, _CMP_LE_OQ),
                                         _mm256_cmp_pd(x, limit, _CMP_GT_OQ));
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(_mm256_xor_pd(x, sign),
                                               minus_one, settled));
  }
  decay_args(lambda, t, out, n4, n);
  util::exp_batch(out, out, n);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d lam = _mm256_loadu_pd(lambda + i);
    const __m256d x = _mm256_mul_pd(lam, tv);
    __m256d d = _mm256_blendv_pd(_mm256_loadu_pd(out + i), zero,
                                 _mm256_cmp_pd(x, limit, _CMP_GT_OQ));
    d = _mm256_blendv_pd(d, one, _mm256_cmp_pd(lam, zero, _CMP_LE_OQ));
    _mm256_storeu_pd(out + i, d);
  }
  decay_settle(lambda, t, out, n4, n);
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
void rates_avx2(const TrapKinetics& k, const TrapKinetics::Scalars& s,
                const double* exp_c, const double* exp_e, std::size_t begin,
                std::size_t n, double* lambda, double* p_inf) {
  rate_lanes(k, s, exp_c, exp_e, begin, 0, n, lambda, p_inf);
}

void decay_avx2(const double* lambda, Seconds dt, double* out,
                std::size_t n) {
  TrapKinetics::decay(lambda, dt, out, n);
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

TrapKinetics::TrapKinetics(const TrapKinetics& source, int rate_slots)
    : params_(source.params_),
      traps_(source.traps_),
      rate_slots_(rate_slots) {}

bool TrapKinetics::same_kinetics(const TrapKinetics& other) const {
  // delta_vth_mean_v scales only the per-trap shifts, the one axis members
  // of a batch trap class may differ on (chip corners, PBTI ratios).
  TdParameters theirs = other.params_;
  theirs.delta_vth_mean_v = params_.delta_vth_mean_v;
  return theirs == params_ && traps_ == other.traps_;
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
    detail::rates_avx2(*this, s, f.capture, f.emission, begin, n, lambda,
                       p_inf);
  } else {
    rate_lanes(*this, s, f.capture, f.emission, begin, 0, n, lambda, p_inf);
  }
}

void TrapKinetics::decay(const double* lambda, Seconds dt, double* out,
                         std::size_t n) {
  // The exponents go through exp_batch in one pass.
  if (use_avx2_pass()) {
    detail::decay_avx2(lambda, dt, out, n);
    return;
  }
  decay_args(lambda, dt.value(), out, 0, n);
  util::exp_batch(out, out, n);
  decay_settle(lambda, dt.value(), out, 0, n);
}

void TrapKinetics::relax_all(const double* p_inf, const double* decay,
                             double* occ, std::size_t n) {
  if (use_avx2_pass()) {
    detail::relax_avx2(p_inf, decay, occ, n);
  } else {
    relax_lanes(p_inf, decay, occ, 0, n);
  }
}

const double* TrapKinetics::arrhenius(FactorCache& cache,
                                      const std::vector<double>& ea,
                                      double arr_x) {
  for (auto& s : cache.slots) {
    if (s.valid && s.arr_x == arr_x) return s.f.data();
  }
  FactorCache::Slot& s = cache.slots[static_cast<std::size_t>(cache.next)];
  cache.next = (cache.next + 1) % FactorCache::kSlots;
  const std::size_t n = ea.size();
  s.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) s.f[i] = -ea[i] * arr_x;
  util::exp_batch(s.f.data(), s.f.data(), n);
  s.arr_x = arr_x;
  s.valid = true;
  return s.f.data();
}

TrapKinetics::Factors TrapKinetics::factors_for(const Scalars& s) {
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
