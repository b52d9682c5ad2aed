#include "ash/bti/trap_ensemble.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ash/obs/profile.h"
#include "ash/util/random.h"

namespace ash::bti {

namespace {

/// Draw a device's trap population: the kinetics arrays for the core and
/// the DeltaVth contributions into `delta_vth_v`, interleaved per trap in
/// the historical AoS draw order so existing seeds reproduce the same
/// populations.
TrapKinetics::Traps draw_traps(const TdParameters& params, std::uint64_t seed,
                               std::vector<double>& delta_vth_v) {
  params.validate();
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(params.traps_per_device);
  TrapKinetics::Traps t;
  delta_vth_v.reserve(n);
  t.tau_capture.reserve(n);
  t.tau_emission.reserve(n);
  t.capture_ea.reserve(n);
  t.emission_ea.reserve(n);
  t.permanent.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    delta_vth_v.push_back(rng.exponential(params.delta_vth_mean_v.value()));
    t.tau_capture.push_back(rng.loguniform(params.tau_capture_min_s.value(),
                                           params.tau_capture_max_s.value()));
    const double rho = std::pow(
        10.0, rng.normal(params.emission_ratio_log10_mu,
                         params.emission_ratio_log10_sigma));
    t.tau_emission.push_back(rho * t.tau_capture.back());
    t.capture_ea.push_back(std::max(
        0.0, rng.normal(params.capture_ea_mean_ev, params.capture_ea_sigma_ev)));
    t.emission_ea.push_back(
        std::max(0.0, rng.normal(params.emission_ea_mean_ev,
                                 params.emission_ea_sigma_ev)));
    t.permanent.push_back(rng.bernoulli(params.permanent_fraction) ? 1 : 0);
  }
  return t;
}

}  // namespace

TrapEnsemble::TrapEnsemble(const TdParameters& params, std::uint64_t seed)
    : core_(params, draw_traps(params, seed, delta_vth_v_), kRateCacheSlots),
      occupancy_(delta_vth_v_.size(), 0.0) {}

bool TrapEnsemble::recurring_miss(const OperatingCondition& c) {
  const double duty = std::clamp(c.gate_stress_duty, 0.0, 1.0);
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

void TrapEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedTimer timer(
      obs::kernel_histogram(obs::Kernel::kTrapEnsembleEvolve));
  if (!core_.check_step(c, dt)) return;
  // A condition missing twice in a row is recurring (a fixed-step sweep, a
  // benchmark, a multicore mission): it is promoted into the rate cache,
  // and later steps with the same dt are one exp-free sweep.  A one-shot
  // condition (drifting instruments) takes the store-free transient step.
  if (core_.cached(c) || recurring_miss(c)) {
    TrapKinetics::apply(core_.entry_for(c, dt), occupancy_.data());
  } else {
    core_.transient_step(c, dt, occupancy_.data());
  }
  ++version_;
}

double TrapEnsemble::delta_vth() const {
  if (cached_delta_version_ != version_) {
    double acc = 0.0;
    const std::size_t n = occupancy_.size();
    for (std::size_t i = 0; i < n; ++i) acc += occupancy_[i] * delta_vth_v_[i];
    cached_delta_vth_ = acc;
    cached_delta_version_ = version_;
  }
  return cached_delta_vth_;
}

double TrapEnsemble::permanent_delta_vth() const {
  double acc = 0.0;
  const std::size_t n = occupancy_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (core_.traps().permanent[i] != 0) acc += occupancy_[i] * delta_vth_v_[i];
  }
  return acc;
}

double TrapEnsemble::max_delta_vth() const {
  double acc = 0.0;
  for (const double v : delta_vth_v_) acc += v;
  return acc;
}

void TrapEnsemble::reset() {
  std::fill(occupancy_.begin(), occupancy_.end(), 0.0);
  ++version_;
}

std::vector<double> TrapEnsemble::occupancies() const { return occupancy_; }

void TrapEnsemble::set_occupancies(const std::vector<double>& occ) {
  if (occ.size() != occupancy_.size()) {
    throw std::invalid_argument(
        "TrapEnsemble::set_occupancies: size mismatch");
  }
  for (const double v : occ) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "TrapEnsemble::set_occupancies: occupancy outside [0, 1]");
    }
  }
  occupancy_ = occ;
  // A rewind is a state change like any other: bump the version so the
  // delta_vth dot product and every downstream delay cache refresh.
  ++version_;
}

}  // namespace ash::bti
