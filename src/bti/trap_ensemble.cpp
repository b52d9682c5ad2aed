#include "ash/bti/trap_ensemble.h"

#include <algorithm>
#include <cmath>

#include "ash/obs/profile.h"
#include "ash/util/random.h"

namespace ash::bti {

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

TrapEnsemble::TrapEnsemble(const TdParameters& params, std::uint64_t seed)
    : core_(params, draw_traps(params, seed, delta_vth_v_), kRateCacheSlots),
      occupancy_(delta_vth_v_.size(), 0.0) {}

void TrapEnsemble::evolve(const OperatingCondition& c, Seconds dt) {
  const obs::ScopedTimer timer(
      obs::kernel_histogram(obs::Kernel::kTrapEnsembleEvolve));
  if (!core_.check_step(c, dt)) return;
  core_.step(c, dt, occupancy_.data());
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
  TrapKinetics::check_occupancies(occ, occupancy_.size());
  occupancy_ = occ;
  // A rewind is a state change like any other: bump the version so the
  // delta_vth dot product and every downstream delay cache refresh.
  ++version_;
}

}  // namespace ash::bti
