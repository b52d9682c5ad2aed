#include "ash/bti/closed_form.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ash/bti/acceleration.h"
#include "ash/util/constants.h"

namespace ash::bti {

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("ClosedFormParameters: ") + what);
  }
}

}  // namespace

ClosedFormParameters ClosedFormParameters::from_td(const TdParameters& td) {
  td.validate();
  ClosedFormParameters p;
  // Aggregate amplitude: phi_ref * (total trappable shift) per ln-unit of
  // the tau spectrum.  The ensemble's DeltaVth(t) at the stress reference is
  // phi * total * ln(t/tau_min) / ln(tau_max/tau_min) for
  // tau_min << t << tau_max, i.e. beta = phi * total / ln(tau_max/tau_min).
  const double total_v =
      static_cast<double>(td.traps_per_device) * td.delta_vth_mean_v.value();
  const double spectrum_ln =
      std::log(td.tau_capture_max_s / td.tau_capture_min_s);
  const double phi_ref = occupancy_amplitude(td, td.stress_ref_voltage_v,
                                             td.stress_ref_temp_k);
  p.beta_ref_v = Volts{phi_ref * total_v / spectrum_ln};
  p.tau_stress_s = td.tau_capture_min_s;
  p.e0_ev = td.amp_e0_ev;
  p.b_ev_per_v = td.amp_b_ev_per_v;
  p.stress_ref_voltage_v = td.stress_ref_voltage_v;
  p.stress_ref_temp_k = td.stress_ref_temp_k;
  p.capture_ea_ev = td.capture_ea_mean_ev;
  p.capture_field_accel_per_v = td.capture_field_accel_per_v;
  p.capture_threshold_voltage_v = td.capture_threshold_voltage_v;
  p.emission_time_ratio = std::pow(10.0, td.emission_ratio_log10_mu);
  p.tau_recovery_s = p.emission_time_ratio * td.tau_capture_min_s;
  p.emission_ea_ev = td.emission_ea_mean_ev;
  p.emission_neg_bias_accel_per_v = td.emission_neg_bias_accel_per_v;
  p.recovery_ref_temp_k = td.recovery_ref_temp_k;
  p.permanent_ratio = td.permanent_fraction;
  p.validate();
  return p;
}

void ClosedFormParameters::validate() const {
  require(beta_ref_v > Volts{0.0}, "beta_ref_v must be positive");
  require(tau_stress_s > Seconds{0.0}, "tau_stress_s must be positive");
  require(stress_ref_temp_k > Kelvin{0.0},
          "stress_ref_temp_k must be positive");
  require(capture_threshold_voltage_v > Volts{0.0},
          "capture_threshold_voltage_v must be positive");
  require(emission_time_ratio >= 1.0, "emission_time_ratio must be >= 1");
  require(tau_recovery_s > Seconds{0.0}, "tau_recovery_s must be positive");
  require(recovery_ref_temp_k > Kelvin{0.0},
          "recovery_ref_temp_k must be positive");
  require(permanent_ratio >= 0.0 && permanent_ratio < 1.0,
          "permanent_ratio must be in [0, 1)");
}

ClosedFormModel::ClosedFormModel(ClosedFormParameters params)
    : params_(params) {
  params_.validate();
}

double ClosedFormModel::beta(Volts voltage, Kelvin temp) const {
  const double voltage_v = voltage.value();
  const double temp_k = temp.value();
  auto amplitude = [&](double v, double t) {
    return std::exp(-(params_.e0_ev - params_.b_ev_per_v * v) /
                    (kBoltzmannEv * t));
  };
  return params_.beta_ref_v.value() * amplitude(voltage_v, temp_k) /
         amplitude(params_.stress_ref_voltage_v.value(),
                   params_.stress_ref_temp_k.value());
}

double ClosedFormModel::emission_acceleration(Volts voltage,
                                              Kelvin temp) const {
  const double voltage_v = voltage.value();
  const double temp_k = temp.value();
  const double arr =
      std::exp(-(params_.emission_ea_ev / kBoltzmannEv) *
               (1.0 / temp_k - 1.0 / params_.recovery_ref_temp_k.value()));
  const double bias = std::exp(params_.emission_neg_bias_accel_per_v *
                               std::max(0.0, -voltage_v));
  return arr * bias;
}

double ClosedFormModel::capture_acceleration(Volts voltage,
                                             Kelvin temp) const {
  const double voltage_v = voltage.value();
  const double temp_k = temp.value();
  if (voltage < params_.capture_threshold_voltage_v) return 0.0;
  const double field =
      std::exp(params_.capture_field_accel_per_v *
               (voltage_v - params_.stress_ref_voltage_v.value()));
  const double arr =
      std::exp(-(params_.capture_ea_ev / kBoltzmannEv) *
               (1.0 / temp_k - 1.0 / params_.stress_ref_temp_k.value()));
  return field * arr;
}

double ClosedFormModel::ac_amplitude_factor(const OperatingCondition& c) const {
  const double duty = std::clamp(c.gate_stress_duty, 0.0, 1.0);
  if (duty >= 1.0) return 1.0;
  if (duty <= 0.0) return 0.0;
  // During the unbiased fraction of each cycle, fast traps emit at the
  // passive rate accelerated by the (stress) temperature; the equilibrium
  // occupancy is the capture share of the total rate.
  const double emission_af =
      emission_acceleration(Volts{0.0}, c.temperature_k);
  const double r =
      ((1.0 - duty) / duty) * emission_af / params_.emission_time_ratio;
  return 1.0 / (1.0 + r);
}

StressLaw ClosedFormModel::stress_law(const OperatingCondition& c) const {
  StressLaw law;
  law.tau = params_.tau_stress_s;
  if (!c.is_stressing()) return law;
  law.afc = capture_acceleration(c.voltage_v, c.temperature_k);
  if (law.afc <= 0.0) return law;
  law.duty = std::clamp(c.gate_stress_duty, 0.0, 1.0);
  law.amp = beta(c.voltage_v, c.temperature_k) * ac_amplitude_factor(c);
  return law;
}

double ClosedFormModel::remaining_fraction(Seconds t1_equiv, Seconds t2,
                                           const OperatingCondition& c) const {
  const double t1_equiv_s = t1_equiv.value();
  const double t2_s = t2.value();
  if (t1_equiv_s <= 0.0) return 1.0;
  const double denom = std::log1p(t1_equiv_s / params_.tau_stress_s.value());
  if (denom <= 0.0) return 1.0;
  const double q =
      emission_acceleration(c.voltage_v, c.temperature_k) * std::max(0.0, t2_s);
  const double recovered =
      std::min(1.0, std::log1p(q / params_.tau_recovery_s.value()) / denom);
  return params_.permanent_ratio + (1.0 - params_.permanent_ratio) *
                                       (1.0 - recovered);
}

ClosedFormAger::ClosedFormAger(ClosedFormParameters params)
    : model_(params) {}

double ClosedFormAger::equivalent_stress_time(double beta_v) const {
  const double perm = model_.parameters().permanent_ratio;
  const double scale = (1.0 - perm) * beta_v;
  if (scale <= 0.0) return 0.0;
  // Clamp the exponent: damage deep into the spectrum corresponds to
  // astronomically long equivalent times; cap instead of overflowing.
  const double x = std::min(reversible_v_ / scale, 60.0);
  return model_.parameters().tau_stress_s.value() * std::expm1(x);
}

void ClosedFormAger::advance_stress(const OperatingCondition& c, double dt_s) {
  in_recovery_episode_ = false;
  const StressLaw law = model_.stress_law(c);
  if (law.afc <= 0.0) {
    // Biased below the capture threshold: the stressed fraction does
    // nothing; the unbiased fraction passively recovers at 0 V.
    OperatingCondition passive = c;
    passive.voltage_v = Volts{0.0};
    passive.gate_stress_duty = 0.0;
    advance_recovery(passive, (1.0 - c.gate_stress_duty) * dt_s);
    in_recovery_episode_ = false;
    return;
  }
  const double amp = law.amp;
  if (amp <= 0.0) return;
  const double tau_s = law.tau.value();
  const double perm = model_.parameters().permanent_ratio;
  const double dt_eff = dt_s * law.duty * law.afc;

  // Reversible traps: refill from the current (possibly healed) state —
  // fast traps recaptured first, so re-stress initially degrades fast.
  const double t_eff = equivalent_stress_time(amp);
  const double t_eff_next = t_eff + dt_eff;
  reversible_v_ = (1.0 - perm) * amp * std::log1p(t_eff_next / tau_s);
  spectrum_ln_ = std::log1p(t_eff_next / tau_s);

  // Permanent traps fill once, along the never-recovered envelope: they
  // track cumulative stress exposure, not the heal/refill cycling.  (The
  // trap ensemble has this property by construction: a permanent trap that
  // is already occupied cannot be re-captured.)
  if (perm > 0.0) {
    const double perm_scale = perm * amp;
    const double x = std::min(permanent_v_ / perm_scale, 60.0);
    const double perm_t_eff = tau_s * std::expm1(x);
    permanent_v_ = perm_scale * std::log1p((perm_t_eff + dt_eff) / tau_s);
  }
}

void ClosedFormAger::advance_recovery(const OperatingCondition& c,
                                      double dt_s) {
  if (reversible_v_ <= 0.0 || dt_s <= 0.0) return;
  if (!in_recovery_episode_) {
    in_recovery_episode_ = true;
    episode_passive_s_ = 0.0;
    episode_start_reversible_v_ = reversible_v_;
    episode_denom_ln_ = std::max(spectrum_ln_, 1e-12);
  }
  episode_passive_s_ +=
      dt_s * model_.emission_acceleration(c.voltage_v, c.temperature_k);
  const double recovered = std::min(
      1.0,
      std::log1p(episode_passive_s_ /
                 model_.parameters().tau_recovery_s.value()) /
          episode_denom_ln_);
  reversible_v_ = episode_start_reversible_v_ * (1.0 - recovered);
}

void ClosedFormAger::evolve(const OperatingCondition& c, Seconds dt) {
  const double dt_s = dt.value();
  if (dt_s < 0.0) {
    throw std::invalid_argument("ClosedFormAger::evolve: negative dt");
  }
  if (dt_s == 0.0) return;
  if (c.gate_stress_duty > 0.0) {
    advance_stress(c, dt_s);
  } else {
    advance_recovery(c, dt_s);
  }
}

void ClosedFormAger::reset() {
  reversible_v_ = 0.0;
  permanent_v_ = 0.0;
  spectrum_ln_ = 0.0;
  in_recovery_episode_ = false;
  episode_passive_s_ = 0.0;
  episode_start_reversible_v_ = 0.0;
  episode_denom_ln_ = 0.0;
}

}  // namespace ash::bti
