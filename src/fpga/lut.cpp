#include "ash/fpga/lut.h"

#include <algorithm>
#include <stdexcept>

#include "ash/util/random.h"

namespace ash::fpga {

namespace {

/// Fresh segment delays at nominal supply: two pass segments, two buffer
/// stages — 1.2 ns per LUT; the routing block adds 0.8 ns for the paper's
/// ~2 ns/stage, 75-stage, ~3.3 MHz ring oscillator.
constexpr Seconds kPassDelay{0.25e-9};
constexpr Seconds kBufferDelay{0.35e-9};

TransistorSpec spec_for(int index) {
  switch (index) {
    case kM1: return {"M1", DeviceType::kNmos, kPassDelay};
    case kM2: return {"M2", DeviceType::kNmos, kPassDelay};
    case kM3: return {"M3", DeviceType::kNmos, kPassDelay};
    case kM4: return {"M4", DeviceType::kNmos, kPassDelay};
    case kM5: return {"M5", DeviceType::kNmos, kPassDelay};
    case kM6: return {"M6", DeviceType::kNmos, kPassDelay};
    case kM7: return {"M7", DeviceType::kNmos, kBufferDelay};
    case kM8: return {"M8", DeviceType::kPmos, kBufferDelay};
    case kM9: return {"M9", DeviceType::kNmos, kBufferDelay};
    case kM10: return {"M10", DeviceType::kPmos, kBufferDelay};
    default: return {"?", DeviceType::kNmos, Seconds{0.0}};
  }
}

}  // namespace

PassTransistorLut2::PassTransistorLut2(LutConfig config, double delay_scale,
                                       const bti::TdParameters& params,
                                       std::uint64_t seed,
                                       double pbti_amplitude_ratio) {
  config_ = config;
  if (pbti_amplitude_ratio <= 0.0) {
    throw std::invalid_argument(
        "PassTransistorLut2: pbti_amplitude_ratio must be positive");
  }
  devices_.reserve(kLutDeviceCount);
  for (int i = 0; i < kLutDeviceCount; ++i) {
    const TransistorSpec spec = spec_for(i);
    devices_.emplace_back(
        spec, delay_scale,
        td_for_device(spec.type, params, pbti_amplitude_ratio),
        derive_seed(seed, static_cast<std::uint64_t>(i)));
  }
}

bool PassTransistorLut2::evaluate(bool in0, bool in1) const {
  return config_[static_cast<std::size_t>(2 * (in1 ? 1 : 0) + (in0 ? 1 : 0))];
}

std::vector<int> PassTransistorLut2::stressed_devices(bool in0,
                                                      bool in1) const {
  std::vector<int> out;
  // Branch node values: what each conducting level-1 device delivers.
  const bool nb = in0 ? config_[3] : config_[2];
  const bool na = in0 ? config_[1] : config_[0];
  // Level-1 pass devices: gate high AND passing logic 0.
  if (in0 && !config_[3]) out.push_back(kM1);
  if (!in0 && !config_[2]) out.push_back(kM2);
  if (in0 && !config_[1]) out.push_back(kM3);
  if (!in0 && !config_[0]) out.push_back(kM4);
  // Level-2 pass devices.
  if (in1 && !nb) out.push_back(kM5);
  if (!in1 && !na) out.push_back(kM6);
  // Buffer stages: tree value t drives stage 1; !t drives stage 2.
  const bool t = evaluate(in0, in1);
  out.push_back(t ? kM7 : kM8);
  out.push_back(t ? kM10 : kM9);
  std::sort(out.begin(), out.end());
  return out;
}

std::array<int, 4> PassTransistorLut2::conducting_path(bool in0,
                                                       bool in1) const {
  const int l1 = in1 ? (in0 ? kM1 : kM2) : (in0 ? kM3 : kM4);
  const int l2 = in1 ? kM5 : kM6;
  const bool t = evaluate(in0, in1);
  // Stage 1 output is !t: driven high by the PMOS when t = 0... the driving
  // (ON) device of an inverter is the one whose input turns it on.
  const int stage1 = t ? kM7 : kM8;
  const int stage2 = t ? kM10 : kM9;
  return {l1, l2, stage1, stage2};
}

std::vector<int> PassTransistorLut2::stressed_on_poi(bool in0,
                                                     bool in1) const {
  const auto stressed = stressed_devices(in0, in1);
  const auto path = conducting_path(in0, in1);
  std::vector<int> out;
  for (int d : stressed) {
    if (std::find(path.begin(), path.end(), d) != path.end()) {
      out.push_back(d);
    }
  }
  return out;
}

double PassTransistorLut2::path_delay(bool in0, bool in1,
                                      const DelayParams& dp, Volts vdd,
                                      Kelvin temp) const {

  const auto path = conducting_path(in0, in1);
  std::uint64_t stamp = 0;
  for (int idx : path) {
    stamp += devices_[static_cast<std::size_t>(idx)].state_version();
  }
  PathDelayCache& cache =
      path_cache_[static_cast<std::size_t>(2 * (in1 ? 1 : 0) + (in0 ? 1 : 0))];
  if (cache.matches(dp, vdd, temp, stamp)) return cache.delay_s.value();

  double total = 0.0;
  for (int idx : path) {
    const Transistor& d = devices_[static_cast<std::size_t>(idx)];
    total += segment_delay(dp, d.fresh_delay_s(), Volts{d.delta_vth()}, vdd,
                           temp);
  }
  cache.store(dp, vdd, temp, stamp, Seconds{total});
  return total;
}

void PassTransistorLut2::age_static(bool in0, bool in1,
                                    const bti::OperatingCondition& env,
                                    Seconds dt) {
  const auto stressed = stressed_devices(in0, in1);
  bti::OperatingCondition anneal = env;
  anneal.voltage_v = Volts{0.0};
  anneal.gate_stress_duty = 0.0;
  for (int i = 0; i < kLutDeviceCount; ++i) {
    const bool is_stressed =
        std::find(stressed.begin(), stressed.end(), i) != stressed.end();
    devices_[static_cast<std::size_t>(i)].evolve(is_stressed ? env : anneal,
                                                 dt);
  }
}

void PassTransistorLut2::age_toggling(const bti::OperatingCondition& env,
                                      Seconds dt) {
  for (auto& d : devices_) d.evolve(env, dt);
}

void PassTransistorLut2::age_sleep(const bti::OperatingCondition& env,
                                   Seconds dt) {
  for (auto& d : devices_) d.evolve(env, dt);
}

}  // namespace ash::fpga
