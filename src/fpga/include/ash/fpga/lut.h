#pragma once

/// \file lut.h
/// Pass-transistor 2-input LUT — the Fig. 2 structure of the paper.
///
/// Netlist (concrete realization of the generic PT-LUT; exact commercial
/// netlists are unavailable, to the paper's authors as well):
///
///   * The four configuration bits C0..C3 (truth table indexed by
///     2*In1 + In0) feed the pass tree directly.
///   * Level 1 — four NMOS pass transistors select within each bit pair:
///       branch B (used when In1 = 1):  M1 (gate In0,  passes C3),
///                                      M2 (gate !In0, passes C2);
///       branch A (used when In1 = 0):  M3 (gate In0,  passes C1),
///                                      M4 (gate !In0, passes C0).
///   * Level 2 — two NMOS pass transistors select the branch:
///       M5 (gate In1) passes branch B, M6 (gate !In1) passes branch A.
///   * A two-stage (level-restoring, non-inverting) output buffer:
///       stage 1: M7 = NMOS, M8 = PMOS;  stage 2: M9 = NMOS, M10 = PMOS.
///     LUT output = C_sel.
///
/// Stress rule (device bias analysis, per static input vector):
///   * an NMOS pass transistor is PBTI-stressed iff its gate is high AND
///     the value it passes is logic 0 (full Vgs = Vdd; a device passing a 1
///     sits at Vgs ~ Vth and is effectively unstressed);
///   * inverter stages: input 1 stresses the NMOS (PBTI), input 0 stresses
///     the PMOS (NBTI) — the ON device is the stressed device.
///
/// For the paper's running example (LUT mapped to an inverter, In1 = 1,
/// i.e. config C2 = 1, C3 = 0 so out = !In0):
///   In0 = 1  =>  stressed on the POI: {M1, M5, M8, M9};
///   In0 = 0  =>  stressed on the POI: {M7, M10}.
/// This reproduces the paper's {M1, M5} / {M7} example exactly, extended by
/// the complementary buffer devices its pre-buffer accounting omits.  Both
/// structural hypotheses of Sec. 3.2 hold by construction: the stress set
/// is a pure function of (config, inputs) (H1), and recovery acts only on
/// trapped devices (H2).

#include <array>
#include <cstdint>
#include <vector>

#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/fpga/delay.h"
#include "ash/fpga/transistor.h"

namespace ash::fpga {

/// Indices of the ten devices of one LUT.
enum LutDevice : int {
  kM1 = 0,  // L1 pass, gate In0,  branch B (passes C3)
  kM2,      // L1 pass, gate !In0, branch B (passes C2)
  kM3,      // L1 pass, gate In0,  branch A (passes C1)
  kM4,      // L1 pass, gate !In0, branch A (passes C0)
  kM5,      // L2 pass, gate In1   (branch B)
  kM6,      // L2 pass, gate !In1  (branch A)
  kM7,      // buffer stage 1 NMOS
  kM8,      // buffer stage 1 PMOS
  kM9,      // buffer stage 2 NMOS
  kM10,     // buffer stage 2 PMOS
  kLutDeviceCount
};

/// A 2-input LUT configuration: truth table indexed by 2*In1 + In0.
using LutConfig = std::array<bool, 4>;

/// The inverter configuration used by the ring oscillator: out = !In0
/// regardless of In1 (the paper drives In1 = 1 and stores "0101").
constexpr LutConfig inverter_config() {
  return {true, false, true, false};
}

/// One pass-transistor LUT with per-device BTI state.
class PassTransistorLut2 {
 public:
  /// `delay_scale` applies process variation to every segment of this LUT;
  /// `seed` individualizes the trap populations; `pbti_amplitude_ratio`
  /// scales NMOS (PBTI) aging relative to PMOS (NBTI) — see
  /// td_for_device().  Must be > 0.
  PassTransistorLut2(LutConfig config, double delay_scale,
                     const bti::TdParameters& params, std::uint64_t seed,
                     double pbti_amplitude_ratio = 1.0);

  const LutConfig& config() const { return config_; }

  /// Logic function: out = C[2*In1 + In0].
  bool evaluate(bool in0, bool in1) const;

  /// Device bias analysis: which devices are under BTI stress for the given
  /// static input vector (includes off-POI level-1 devices of the
  /// unselected branch, which age even though they do not affect delay).
  std::vector<int> stressed_devices(bool in0, bool in1) const;

  /// Subset of `stressed_devices` on the conducting path — the paper's
  /// "stressed transistors on the POI".
  std::vector<int> stressed_on_poi(bool in0, bool in1) const;

  /// Devices on the conducting (timed) path for the given inputs, in signal
  /// order: level-1 pass, level-2 pass, stage-1 driver, stage-2 driver.
  std::array<int, 4> conducting_path(bool in0, bool in1) const;

  /// Delay of the conducting path for the given inputs (seconds).  Cached
  /// per input vector: repeated reads between aging steps cost four
  /// version loads instead of four trap-ensemble walks, and a hit returns
  /// the previously computed value bit-for-bit.
  double path_delay(bool in0, bool in1, const DelayParams& dp, Volts vdd,
                    Kelvin temp) const;

  /// Age the LUT under *static* inputs (DC stress): stressed devices see
  /// the stress condition, all others passively anneal (0 V gate) at the
  /// same temperature.
  void age_static(bool in0, bool in1, const bti::OperatingCondition& env,
                  Seconds dt);

  /// Age the LUT under *toggling* inputs (AC stress / normal oscillation):
  /// every device sees the stress voltage at the given duty.
  void age_toggling(const bti::OperatingCondition& env, Seconds dt);

  /// Age the LUT during a sleep/recovery interval: every device sees the
  /// recovery bias (0 V or negative) at the ambient temperature.
  void age_sleep(const bti::OperatingCondition& env, Seconds dt);

  const Transistor& device(int index) const {
    return devices_.at(static_cast<std::size_t>(index));
  }
  Transistor& device(int index) {
    return devices_.at(static_cast<std::size_t>(index));
  }

 private:
  LutConfig config_;
  std::vector<Transistor> devices_;
  /// One memo slot per input vector, indexed 2*in1 + in0 (see delay.h).
  mutable std::array<PathDelayCache, 4> path_cache_{};
};

}  // namespace ash::fpga
