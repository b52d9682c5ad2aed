#include "ash/fpga/ring_oscillator.h"

#include <stdexcept>
#include <string>

#include "ash/obs/profile.h"
#include "ash/util/random.h"

namespace ash::fpga {

void check_ring_stages(int stages) {
  if (stages < 3 || stages % 2 == 0) {
    throw std::invalid_argument(
        "RingOscillator: stage count must be odd and >= 3 (got " +
        std::to_string(stages) + ")");
  }
}

RingOscillator::RingOscillator(int stages,
                               const std::vector<double>& delay_scales,
                               const DelayParams& delay_params,
                               const bti::TdParameters& td_params,
                               std::uint64_t seed,
                               double pbti_amplitude_ratio)
    : delay_params_(delay_params) {
  check_ring_stages(stages);
  if (delay_scales.size() != static_cast<std::size_t>(stages)) {
    throw std::invalid_argument(
        "RingOscillator: one delay scale per stage required");
  }
  stages_.reserve(static_cast<std::size_t>(stages));
  for (int i = 0; i < stages; ++i) {
    const std::uint64_t stage_seed =
        derive_seed(seed, static_cast<std::uint64_t>(i));
    stages_.push_back(RoStage{
        PassTransistorLut2(inverter_config(),
                           delay_scales[static_cast<std::size_t>(i)],
                           td_params, derive_seed(stage_seed, 0),
                           pbti_amplitude_ratio),
        RoutingBlock(delay_scales[static_cast<std::size_t>(i)], td_params,
                     derive_seed(stage_seed, 1), pbti_amplitude_ratio)});
  }
}

Seconds RingOscillator::traversal_delay_s(bool in0_phase, Volts vdd,
                                          Kelvin temp) const {
  // As the edge propagates, consecutive stages see alternating input
  // values; `in0_phase` fixes the value at stage 0.
  double total = 0.0;
  bool in0 = in0_phase;
  for (const auto& s : stages_) {
    total += s.lut.path_delay(in0, /*in1=*/true, delay_params_, vdd, temp);
    const bool out = s.lut.evaluate(in0, true);
    total += s.routing.path_delay(out, delay_params_, vdd, temp);
    in0 = out;
  }
  return Seconds{total};
}

Seconds RingOscillator::period_s(Volts vdd, Kelvin temp) const {
  const obs::ScopedTimer timer(
      obs::kernel_histogram(obs::Kernel::kRoDelayEval));
  return traversal_delay_s(false, vdd, temp) +
         traversal_delay_s(true, vdd, temp);
}

Hertz RingOscillator::frequency_hz(Volts vdd, Kelvin temp) const {
  return units::frequency_of(period_s(vdd, temp));
}

void RingOscillator::evolve(RoMode mode, const bti::OperatingCondition& env,
                            Seconds dt) {
  switch (mode) {
    case RoMode::kAcOscillating: {
      bti::OperatingCondition ac = env;
      if (ac.gate_stress_duty <= 0.0) ac.gate_stress_duty = 0.5;
      for (auto& s : stages_) {
        s.lut.age_toggling(ac, dt);
        s.routing.age_toggling(ac, dt);
      }
      break;
    }
    case RoMode::kDcFrozen: {
      bti::OperatingCondition dc = env;
      dc.gate_stress_duty = 1.0;
      for (int i = 0; i < stage_count(); ++i) {
        auto& s = stages_[static_cast<std::size_t>(i)];
        const bool in0 = dc_input_of_stage(i);
        s.lut.age_static(in0, /*in1=*/true, dc, dt);
        s.routing.age_static(s.lut.evaluate(in0, true), dc, dt);
      }
      break;
    }
    case RoMode::kSleep: {
      bti::OperatingCondition sleep = env;
      sleep.gate_stress_duty = 0.0;
      for (auto& s : stages_) {
        s.lut.age_sleep(sleep, dt);
        s.routing.age_sleep(sleep, dt);
      }
      break;
    }
  }
}

}  // namespace ash::fpga
