#pragma once

/// \file ring_oscillator.h
/// The test structure of Fig. 3: a ring of LUT-mapped inverters, each
/// followed by a routing block, with an enable that switches between AC
/// stress (oscillating) and DC stress (frozen) modes.
///
/// Measurement semantics: the RO period is the sum of one rising and one
/// falling traversal of the ring — per stage, the delay of both the
/// In0 = 0 and the In0 = 1 conducting paths.  Under DC stress only one of
/// those two paths ages (apart from the shared M5), which is why the
/// measured DC frequency degradation is roughly twice the AC one even
/// though the per-device AC shift is only ~0.27x of DC (Fig. 4).

#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/fpga/delay.h"
#include "ash/fpga/lut.h"
#include "ash/fpga/routing.h"

namespace ash::fpga {

/// Operating mode of the ring, selected by the enable logic of Fig. 3.
enum class RoMode {
  /// Enabled and oscillating — AC stress: every device toggles.
  kAcOscillating,
  /// Enable frozen — DC stress: the ring settles to alternating static
  /// values; stage i sees In0 = (i % 2 == 0).
  kDcFrozen,
  /// Sleep — supply gated to 0 V or driven negative; only recovery.
  kSleep,
};

/// One RO stage: LUT inverter + routing block.
struct RoStage {
  PassTransistorLut2 lut;
  RoutingBlock routing;
};

/// Throws std::invalid_argument unless `stages` can oscillate: an odd
/// count of at least 3 inverting stages.
void check_ring_stages(int stages);

/// A 75-stage (configurable) LUT ring oscillator with per-device aging.
class RingOscillator {
 public:
  /// `delay_scales` supplies one process-variation factor per stage (size
  /// must equal `stages`); `seed` roots the per-device trap populations.
  RingOscillator(int stages, const std::vector<double>& delay_scales,
                 const DelayParams& delay_params,
                 const bti::TdParameters& td_params, std::uint64_t seed,
                 double pbti_amplitude_ratio = 1.0);

  int stage_count() const { return static_cast<int>(stages_.size()); }

  /// Delay of one full traversal of the ring for the given input phase.
  /// The static In1 = 1 of Fig. 2's example is applied.
  Seconds traversal_delay_s(bool in0_phase, Volts vdd, Kelvin temp) const;

  /// Oscillation period: rising + falling traversal.
  Seconds period_s(Volts vdd, Kelvin temp) const;

  /// Oscillation frequency f_osc = 1 / period.
  Hertz frequency_hz(Volts vdd, Kelvin temp) const;

  /// Age the whole ring for dt seconds.  `env` supplies voltage,
  /// temperature and (for kAcOscillating) the stress duty.
  void evolve(RoMode mode, const bti::OperatingCondition& env, Seconds dt);

  const RoStage& stage(int i) const {
    return stages_.at(static_cast<std::size_t>(i));
  }
  RoStage& stage(int i) { return stages_.at(static_cast<std::size_t>(i)); }

  const DelayParams& delay_params() const { return delay_params_; }

  /// Static In0 value stage i sits at in DC-frozen mode.
  static bool dc_input_of_stage(int i) { return i % 2 == 0; }

 private:
  std::vector<RoStage> stages_;
  DelayParams delay_params_;
};

}  // namespace ash::fpga
