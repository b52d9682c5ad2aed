#include "ash/bti/trap_kinetics.h"

#include <algorithm>
#include <stdexcept>

#include "ash/bti/acceleration.h"
#include "ash/util/constants.h"
#include "ash/util/exp_batch.h"

namespace ash::bti {
namespace {

double clamped_duty(const OperatingCondition& c) {
  return std::clamp(c.gate_stress_duty, 0.0, 1.0);
}

}  // namespace

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

void TrapKinetics::decay(const double* lambda, Seconds dt, double* out,
                         std::size_t n) {
  // The exponents go through exp_batch in one pass; a lane the rules
  // settle gets the placeholder -1 (a cheap main-path exp) and is
  // overwritten afterwards.
  const double t = dt.value();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = lambda[i] * t;
    out[i] = lambda[i] <= 0.0 || x > 700.0 ? -1.0 : -x;
  }
  util::exp_batch(out, out, n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lambda[i] <= 0.0 ? 1.0 : (lambda[i] * t > 700.0 ? 0.0 : out[i]);
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
    for (std::size_t i = 0; i < n; ++i) {
      const Rate r = rate(s, f.capture, f.emission, i);
      e->lambda[i] = r.lambda;
      e->p_inf[i] = r.p_inf;
    }
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
  const double* p_inf = e.p_inf.data();
  const double* d = e.decay.data();
  const std::size_t n = e.p_inf.size();
  for (std::size_t i = 0; i < n; ++i) occ[i] = relax(occ[i], p_inf[i], d[i]);
}

void TrapKinetics::transient_step(const OperatingCondition& c, Seconds dt,
                                  double* occ) {
  const Scalars s = scalars_for(c);
  const Factors f = factors_for(s);

  // Nothing is written except the occupancies: rates stay in a small
  // L1-resident block buffer.  Campaigns whose instruments drift (a unique
  // condition every interval) spend their whole evolve budget here, and
  // the avoided memo stores, and their later cache evictions across a
  // thousand-device chip, are the dominant cost.  The division-bound rate
  // arithmetic runs in its own exp-free loop so the compiler can vectorize
  // it; the batched decay and the update follow in their own passes.
  const std::size_t n = traps_.permanent.size();
  constexpr std::size_t kBlock = 128;
  double lam[kBlock];
  double pinf[kBlock];
  double d[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    for (std::size_t j = 0; j < len; ++j) {
      const Rate r = rate(s, f.capture, f.emission, base + j);
      lam[j] = r.lambda;
      pinf[j] = r.p_inf;
    }
    decay(lam, dt, d, len);
    for (std::size_t j = 0; j < len; ++j) {
      occ[base + j] = relax(occ[base + j], pinf[j], d[j]);
    }
  }
}

}  // namespace ash::bti
