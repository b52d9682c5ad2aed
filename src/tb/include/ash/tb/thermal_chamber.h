#pragma once

/// \file thermal_chamber.h
/// Virtual thermal chamber — the paper's chips "are heated up or cooled
/// down by a thermal chamber, which allows temperature fluctuation of
/// +/-0.3 degC" (Sec. 4.3).
///
/// The chamber tracks a setpoint with a finite ramp rate and wanders around
/// it with a mean-reverting (Ornstein–Uhlenbeck) error whose 3-sigma band
/// matches the published +/-0.3 degC tolerance.

#include <cstdint>

#include "ash/util/ou_noise.h"
#include "ash/util/random.h"
#include "ash/util/units.h"

namespace ash::tb {

/// Chamber construction parameters.
struct ChamberConfig {
  /// Initial temperature.
  Celsius initial_c{20.0};
  /// Ramp rate toward a new setpoint (degC per second).  The default
  /// corresponds to a typical bench chamber (~3 degC/min); set to a huge
  /// value for idealized instant-setpoint experiments.
  double ramp_c_per_s = 3.0 / 60.0;
  /// Stationary sigma of the fluctuation: 0.1 degC -> +/-0.3 at 3 sigma.
  Celsius fluctuation_sigma_c{0.1};
  /// Correlation time of the fluctuation.
  Seconds fluctuation_tau_s{120.0};
  /// Noise stream seed.
  std::uint64_t seed = default_seed(SeedStream::kChamber);
};

/// A setpoint-tracking chamber with realistic fluctuation.
class ThermalChamber {
 public:
  explicit ThermalChamber(const ChamberConfig& config);

  /// Command a new setpoint.  The chamber ramps toward it.
  void set_target(Celsius target) { target_c_ = target.value(); }

  /// Current chamber temperature, including fluctuation.
  Celsius temperature_c() const { return Celsius{base_c_ + noise_.value()}; }
  /// Same in kelvin.
  Kelvin temperature_k() const;

  /// True once the ramp has reached the setpoint (fluctuation aside).
  bool at_target() const { return base_c_ == target_c_; }

  /// Ramping time still needed to reach the setpoint.
  Seconds seconds_to_target() const;

  /// Advance chamber state by dt.
  void advance(Seconds dt);

 private:
  ChamberConfig config_;
  double base_c_;
  double target_c_;
  OrnsteinUhlenbeck noise_;
};

}  // namespace ash::tb
