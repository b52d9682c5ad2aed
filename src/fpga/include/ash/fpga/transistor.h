#pragma once

/// \file transistor.h
/// An aged transistor: electrical identity plus its BTI trap ensemble.
///
/// Every transistor on the virtual fabric owns its own `bti::TrapEnsemble`
/// (seeded per device), which is what makes the paper's two structural
/// hypotheses (Sec. 3.2) properties of the implementation rather than
/// assumptions:
///   * Hypothesis 1 — under DC stress the set of stressed devices is a
///     constant function of (configuration, inputs);
///   * Hypothesis 2 — recovery acts only on devices that carry trapped
///     charge; "fresh" devices are untouched because their occupancies are
///     zero.

#include <cstdint>
#include <string>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/trap_ensemble.h"

namespace ash::fpga {

/// NMOS devices suffer PBTI under positive gate bias; PMOS devices suffer
/// NBTI under negative bias.  The TD kinetics are the same in this model
/// (the paper: "the PBTI effect can be modeled similar to the NBTI
/// effect"), but the polarity determines *when* a device is stressed.
enum class DeviceType { kNmos, kPmos };

/// Immutable electrical identity of a device in a stage netlist.
struct TransistorSpec {
  std::string name;          ///< e.g. "M1", "M5", "R1P"
  DeviceType type = DeviceType::kNmos;
  /// Fresh delay of the path segment this device drives, at nominal
  /// supply.  Zero for devices that never sit on a timed path.
  Seconds nominal_delay_s{0.0};
};

/// Device-type-specific parameter derivation: PBTI (NMOS) aging amplitude
/// relative to NBTI (PMOS).  The paper's Sec. 1: PBTI was "negligible in
/// previous technologies" (SiON gates) but is "rapidly becoming an
/// important reliability issue with the introduction of high-k and metal
/// gates".  The default calibration treats the 40 nm parts' NBTI and PBTI
/// alike (ratio 1); pass a ratio < 1 to study SiON-era asymmetry (see
/// Ablation J of `ash_lab reproduce`).
inline bti::TdParameters td_for_device(DeviceType type,
                                       const bti::TdParameters& base,
                                       double pbti_amplitude_ratio) {
  if (type == DeviceType::kPmos || pbti_amplitude_ratio == 1.0) return base;
  bti::TdParameters scaled = base;
  scaled.delta_vth_mean_v = scaled.delta_vth_mean_v * pbti_amplitude_ratio;
  return scaled;
}

/// A transistor with BTI state.
class Transistor {
 public:
  /// `delay_scale` applies process variation (chip corner x local mismatch)
  /// to the fresh segment delay.
  Transistor(TransistorSpec spec, double delay_scale,
             const bti::TdParameters& params, std::uint64_t seed)
      : spec_(std::move(spec)),
        delay_s_(spec_.nominal_delay_s * delay_scale),
        ensemble_(params, seed) {}

  const TransistorSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  DeviceType type() const { return spec_.type; }

  /// Variation-adjusted fresh segment delay.
  Seconds fresh_delay_s() const { return delay_s_; }

  /// Current BTI threshold shift magnitude (volts).  O(1) between aging
  /// steps — the ensemble caches the dot product.
  double delta_vth() const { return ensemble_.delta_vth(); }

  /// Monotonic aging-state counter of the underlying ensemble; delay
  /// caches use it as a dirty flag (see lut.h / routing.h).
  std::uint64_t state_version() const { return ensemble_.state_version(); }

  /// Which BTI flavour stresses this device.
  bti::StressType stress_type() const {
    return type() == DeviceType::kPmos ? bti::StressType::kNbti
                                       : bti::StressType::kPbti;
  }

  /// Advance the device's trap state.
  void evolve(const bti::OperatingCondition& c, Seconds dt) {
    ensemble_.evolve(c, dt);
  }

  const bti::TrapEnsemble& ensemble() const { return ensemble_; }
  bti::TrapEnsemble& ensemble() { return ensemble_; }

 private:
  TransistorSpec spec_;
  Seconds delay_s_;
  bti::TrapEnsemble ensemble_;
};

}  // namespace ash::fpga
