/// Invalidation coverage for the caches added by the hot-kernel overhaul:
/// the trap ensemble's delta_vth dot product and the fpga path-delay memos
/// must refresh on *every* state mutation — evolve, reset, and in
/// particular set_occupancies (the checkpoint-restore path, which
/// historically bypassed derived-state refreshes in naive dirty-flag
/// schemes; here the version counter covers it by construction).

#include <gtest/gtest.h>

#include <vector>

#include "ash/bti/trap_ensemble.h"
#include "ash/fpga/checkpoint.h"
#include "ash/fpga/chip.h"
#include "ash/fpga/lut.h"

namespace ash {
namespace {

bti::OperatingCondition stress_condition() {
  bti::OperatingCondition c;
  c.voltage_v = Volts{1.2};
  c.temperature_k = Kelvin{383.0};
  c.gate_stress_duty = 1.0;
  return c;
}

TEST(CacheInvalidation, EvolveBumpsVersionAndRefreshesDeltaVth) {
  bti::TrapEnsemble e(bti::TdParameters{}, 7);
  const std::uint64_t v0 = e.state_version();
  EXPECT_EQ(e.delta_vth(), 0.0);

  e.evolve(stress_condition(), Seconds{3600.0});
  EXPECT_GT(e.state_version(), v0);
  const double aged = e.delta_vth();
  EXPECT_GT(aged, 0.0);

  // dt = 0 is a no-op: no state change, no version bump.
  const std::uint64_t v1 = e.state_version();
  e.evolve(stress_condition(), Seconds{0.0});
  EXPECT_EQ(e.state_version(), v1);
  EXPECT_EQ(e.delta_vth(), aged);
}

TEST(CacheInvalidation, SetOccupanciesRefreshesDeltaVth) {
  bti::TrapEnsemble e(bti::TdParameters{}, 7);
  e.evolve(stress_condition(), Seconds{3600.0});
  const double aged = e.delta_vth();
  const std::vector<double> snapshot = e.occupancies();

  // Rewind to fresh via set_occupancies: the cached dot product must not
  // survive the state swap.
  e.set_occupancies(std::vector<double>(snapshot.size(), 0.0));
  EXPECT_EQ(e.delta_vth(), 0.0);

  // And forward again: restoring the exact snapshot restores the exact
  // value.
  e.set_occupancies(snapshot);
  EXPECT_EQ(e.delta_vth(), aged);
}

TEST(CacheInvalidation, ResetRefreshesDeltaVth) {
  bti::TrapEnsemble e(bti::TdParameters{}, 7);
  e.evolve(stress_condition(), Seconds{3600.0});
  ASSERT_GT(e.delta_vth(), 0.0);
  e.reset();
  EXPECT_EQ(e.delta_vth(), 0.0);
}

TEST(CacheInvalidation, LutPathDelayTracksDirectEnsembleMutation) {
  const bti::TdParameters params;
  fpga::PassTransistorLut2 lut(fpga::inverter_config(), 1.0, params, 11);
  const fpga::DelayParams dp;
  const double vdd = 1.0;
  const double temp = 298.15;

  const double fresh = lut.path_delay(true, true, dp, Volts{vdd}, Kelvin{temp});
  // Repeated read: cached, bit-identical.
  EXPECT_EQ(lut.path_delay(true, true, dp, Volts{vdd}, Kelvin{temp}), fresh);

  // Mutate one on-path device's ensemble directly (not via age_*): the
  // version stamp must catch it.
  const auto path = lut.conducting_path(true, true);
  lut.device(path[0]).evolve(stress_condition(), Seconds{24.0 * 3600.0});
  const double aged = lut.path_delay(true, true, dp, Volts{vdd}, Kelvin{temp});
  EXPECT_GT(aged, fresh);

  // Rewind that device via set_occupancies: delay returns to the fresh
  // value bit-for-bit.
  auto& ens = lut.device(path[0]).ensemble();
  ens.set_occupancies(std::vector<double>(
      static_cast<std::size_t>(ens.trap_count()), 0.0));
  EXPECT_EQ(lut.path_delay(true, true, dp, Volts{vdd}, Kelvin{temp}), fresh);
}

TEST(CacheInvalidation, LutPathDelayTracksMeasurementKnobs) {
  const bti::TdParameters params;
  fpga::PassTransistorLut2 lut(fpga::inverter_config(), 1.0, params, 11);
  fpga::DelayParams dp;
  dp.temp_coeff_per_k = 1e-3;  // default 0 makes delay T-independent
  const double d_nom = lut.path_delay(false, true, dp, Volts{1.0}, Kelvin{298.15});
  // Same state, different measurement knobs: the cache must not serve the
  // stale point.
  const double d_low_vdd = lut.path_delay(false, true, dp, Volts{0.9}, Kelvin{298.15});
  const double d_hot = lut.path_delay(false, true, dp, Volts{1.0}, Kelvin{358.15});
  EXPECT_NE(d_nom, d_low_vdd);
  EXPECT_NE(d_nom, d_hot);
  // And back: bit-identical re-reads at each point.
  EXPECT_EQ(lut.path_delay(false, true, dp, Volts{1.0}, Kelvin{298.15}), d_nom);
}

TEST(CacheInvalidation, CheckpointRewindThenMeasure) {
  fpga::ChipConfig cc;
  cc.chip_id = 3;
  cc.seed = 0x5150;
  cc.ro_stages = 15;
  fpga::FpgaChip chip(cc);
  const double vdd = 1.0;
  const double temp = 298.15;

  bti::OperatingCondition env = stress_condition();
  chip.evolve(fpga::RoMode::kDcFrozen, env, Seconds{3600.0});
  const double f_mid = chip.ro_frequency_hz(Volts{vdd}, Kelvin{temp}).value();
  const fpga::ChipState snapshot = fpga::snapshot(chip);

  chip.evolve(fpga::RoMode::kDcFrozen, env, Seconds{48.0 * 3600.0});
  const double f_late = chip.ro_frequency_hz(Volts{vdd}, Kelvin{temp}).value();
  EXPECT_LT(f_late, f_mid);

  // Rewind to the snapshot and measure immediately: every cached delay on
  // the chip must reflect the restored occupancies, bit-for-bit.
  fpga::restore(snapshot, chip);
  EXPECT_EQ(chip.ro_frequency_hz(Volts{vdd}, Kelvin{temp}).value(), f_mid);

  // Aging forward from the restored state diverges again (the caches do
  // not pin the chip to the snapshot).
  chip.evolve(fpga::RoMode::kDcFrozen, env, Seconds{3600.0});
  EXPECT_LT(chip.ro_frequency_hz(Volts{vdd}, Kelvin{temp}).value(), f_mid);
}

}  // namespace
}  // namespace ash
