#include "ash/fpga/lut.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "ash/util/constants.h"

namespace ash::fpga {
namespace {

using bti::default_td_parameters;

PassTransistorLut2 make_lut(LutConfig config = inverter_config(),
                            std::uint64_t seed = 1) {
  return PassTransistorLut2(config, 1.0, default_td_parameters(), seed);
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

// ---- Logic function: exhaustive over all 16 configs x 4 input vectors ----

class LutTruthTable : public ::testing::TestWithParam<int> {};

TEST_P(LutTruthTable, EvaluatesConfiguredFunction) {
  const int bits = GetParam();
  LutConfig config{};
  for (int i = 0; i < 4; ++i) config[static_cast<std::size_t>(i)] = (bits >> i) & 1;
  const auto lut = make_lut(config);
  for (int in1 = 0; in1 <= 1; ++in1) {
    for (int in0 = 0; in0 <= 1; ++in0) {
      const bool expected = config[static_cast<std::size_t>(2 * in1 + in0)];
      EXPECT_EQ(lut.evaluate(in0 != 0, in1 != 0), expected)
          << "config=" << bits << " in0=" << in0 << " in1=" << in1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LutTruthTable, ::testing::Range(0, 16));

TEST(Lut, InverterConfigInverts) {
  const auto lut = make_lut();
  EXPECT_TRUE(lut.evaluate(false, true));
  EXPECT_FALSE(lut.evaluate(true, true));
  EXPECT_TRUE(lut.evaluate(false, false));
  EXPECT_FALSE(lut.evaluate(true, false));
}

// ---- Stress-set analysis: the paper's Sec. 3.2 example --------------------

TEST(Lut, PaperExampleIn0HighStressesM1AndM5) {
  const auto lut = make_lut();
  const auto poi = lut.stressed_on_poi(/*in0=*/true, /*in1=*/true);
  EXPECT_TRUE(contains(poi, kM1));
  EXPECT_TRUE(contains(poi, kM5));
  EXPECT_FALSE(contains(poi, kM2));
  EXPECT_FALSE(contains(poi, kM7));
}

TEST(Lut, PaperExampleIn0LowStressesM7) {
  const auto lut = make_lut();
  const auto poi = lut.stressed_on_poi(/*in0=*/false, /*in1=*/true);
  EXPECT_TRUE(contains(poi, kM7));
  EXPECT_FALSE(contains(poi, kM1));
  EXPECT_FALSE(contains(poi, kM5));
  EXPECT_FALSE(contains(poi, kM2));
}

TEST(Lut, OffPoiDevicesAlsoAgeUnderDc) {
  // For the inverter at In0 = 1, the unselected branch's M3 (gate In0,
  // passing C1 = 0) is stressed even though it is off the timed path.
  const auto lut = make_lut();
  const auto all = lut.stressed_devices(true, true);
  const auto poi = lut.stressed_on_poi(true, true);
  EXPECT_TRUE(contains(all, kM3));
  EXPECT_FALSE(contains(poi, kM3));
}

TEST(Lut, Hypothesis1StressSetIsConstantUnderDc) {
  // The stress set is a pure function of (config, inputs): identical before
  // and after arbitrary aging.
  auto lut = make_lut();
  const auto before = lut.stressed_devices(true, true);
  lut.age_static(true, true, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const auto after = lut.stressed_devices(true, true);
  EXPECT_EQ(before, after);
}

TEST(Lut, StressSetDependsOnInputs) {
  const auto lut = make_lut();
  EXPECT_NE(lut.stressed_devices(true, true), lut.stressed_devices(false, true));
}

TEST(Lut, PassDeviceStressRequiresPassingZero) {
  // Constant-1 config: every selected bit is 1, so no pass transistor ever
  // passes a 0 and only buffer devices are stressed.
  const auto lut = make_lut(LutConfig{true, true, true, true});
  for (int in1 = 0; in1 <= 1; ++in1) {
    for (int in0 = 0; in0 <= 1; ++in0) {
      const auto stressed = lut.stressed_devices(in0 != 0, in1 != 0);
      for (int d : stressed) {
        EXPECT_TRUE(d == kM7 || d == kM8 || d == kM9 || d == kM10)
            << "unexpected stressed pass device " << d;
      }
    }
  }
}

TEST(Lut, ConstantZeroConfigStressesConductingTree) {
  // Constant-0 config: the conducting tree always passes 0, so both
  // conducting pass devices are stressed for every input vector.
  const auto lut = make_lut(LutConfig{false, false, false, false});
  for (int in1 = 0; in1 <= 1; ++in1) {
    for (int in0 = 0; in0 <= 1; ++in0) {
      const auto poi = lut.stressed_on_poi(in0 != 0, in1 != 0);
      const auto path = lut.conducting_path(in0 != 0, in1 != 0);
      EXPECT_TRUE(contains(poi, path[0]));
      EXPECT_TRUE(contains(poi, path[1]));
    }
  }
}

// ---- Conducting path and delay -------------------------------------------

TEST(Lut, ConductingPathSelectsByInputs) {
  const auto lut = make_lut();
  const auto p11 = lut.conducting_path(true, true);
  EXPECT_EQ(p11[0], kM1);
  EXPECT_EQ(p11[1], kM5);
  const auto p01 = lut.conducting_path(false, true);
  EXPECT_EQ(p01[0], kM2);
  EXPECT_EQ(p01[1], kM5);
  const auto p10 = lut.conducting_path(true, false);
  EXPECT_EQ(p10[0], kM3);
  EXPECT_EQ(p10[1], kM6);
  const auto p00 = lut.conducting_path(false, false);
  EXPECT_EQ(p00[0], kM4);
  EXPECT_EQ(p00[1], kM6);
}

TEST(Lut, FreshPathDelayMatchesSegmentSum) {
  const auto lut = make_lut();
  const DelayParams dp;
  // 2 x 0.25 ns pass + 2 x 0.35 ns buffer = 1.2 ns.
  EXPECT_NEAR(lut.path_delay(true, true, dp, Volts{1.2}, Kelvin{celsius(20.0)}), 1.2e-9,
              1e-15);
}

TEST(Lut, DelayGrowsOnlyOnStressedPath) {
  auto lut = make_lut();
  const DelayParams dp;
  const double fresh1 = lut.path_delay(true, true, dp, Volts{1.2}, Kelvin{celsius(20.0)});
  const double fresh0 = lut.path_delay(false, true, dp, Volts{1.2}, Kelvin{celsius(20.0)});
  lut.age_static(true, true, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double aged1 = lut.path_delay(true, true, dp, Volts{1.2}, Kelvin{celsius(20.0)});
  const double aged0 = lut.path_delay(false, true, dp, Volts{1.2}, Kelvin{celsius(20.0)});
  EXPECT_GT(aged1, fresh1 * 1.01);  // stressed path clearly slower
  // The complementary path shares only M5 with the stressed set, so it
  // slows a little — but far less than the stressed path.
  EXPECT_GT(aged0, fresh0);
  EXPECT_LT(aged0 - fresh0, 0.35 * (aged1 - fresh1));
}

TEST(Lut, Hypothesis2RecoveryLeavesFreshDevicesFresh) {
  auto lut = make_lut();
  lut.age_static(true, true, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  ASSERT_DOUBLE_EQ(lut.device(kM2).delta_vth(), 0.0);
  ASSERT_DOUBLE_EQ(lut.device(kM7).delta_vth(), 0.0);
  lut.age_sleep(bti::recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(6.0)});
  EXPECT_DOUBLE_EQ(lut.device(kM2).delta_vth(), 0.0);
  EXPECT_DOUBLE_EQ(lut.device(kM7).delta_vth(), 0.0);
}

TEST(Lut, RecoveryHealsStressedDevices) {
  auto lut = make_lut();
  lut.age_static(true, true, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double stressed = lut.device(kM1).delta_vth();
  ASSERT_GT(stressed, 0.0);
  lut.age_sleep(bti::recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(6.0)});
  EXPECT_LT(lut.device(kM1).delta_vth(), stressed * 0.2);
}

TEST(Lut, TogglingAgesBothPaths) {
  auto lut = make_lut();
  lut.age_toggling(bti::ac_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  EXPECT_GT(lut.device(kM1).delta_vth(), 0.0);
  EXPECT_GT(lut.device(kM2).delta_vth(), 0.0);
  EXPECT_GT(lut.device(kM7).delta_vth(), 0.0);
  EXPECT_GT(lut.device(kM8).delta_vth(), 0.0);
}

TEST(Lut, DeviceTypesMatchNetlistRoles) {
  const auto lut = make_lut();
  EXPECT_EQ(lut.device(kM1).type(), DeviceType::kNmos);
  EXPECT_EQ(lut.device(kM5).type(), DeviceType::kNmos);
  EXPECT_EQ(lut.device(kM7).type(), DeviceType::kNmos);
  EXPECT_EQ(lut.device(kM8).type(), DeviceType::kPmos);
  EXPECT_EQ(lut.device(kM8).stress_type(), bti::StressType::kNbti);
  EXPECT_EQ(lut.device(kM7).stress_type(), bti::StressType::kPbti);
}

}  // namespace
}  // namespace ash::fpga
