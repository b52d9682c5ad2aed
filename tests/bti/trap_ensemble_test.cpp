#include "ash/bti/trap_ensemble.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/constants.h"

namespace ash::bti {
namespace {

TrapEnsemble fresh(std::uint64_t seed = 1) {
  return TrapEnsemble(default_td_parameters(), seed);
}

OperatingCondition ref_stress() { return dc_stress(Volts{1.2}, Celsius{110.0}); }

TEST(TrapEnsemble, FreshDeviceHasNoShift) {
  EXPECT_DOUBLE_EQ(fresh().delta_vth(), 0.0);
}

TEST(TrapEnsemble, StressIncreasesShiftMonotonically) {
  auto e = fresh();
  double prev = 0.0;
  for (int hour = 1; hour <= 24; ++hour) {
    e.evolve(ref_stress(), Seconds{hours(1.0)});
    const double now = e.delta_vth();
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(TrapEnsemble, StressGrowthIsSubLinear) {
  // log(1+Ct): the second 12 hours add less than the first 12 hours.
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(12.0)});
  const double first_half = e.delta_vth();
  e.evolve(ref_stress(), Seconds{hours(12.0)});
  const double total = e.delta_vth();
  EXPECT_LT(total - first_half, first_half * 0.8);
}

TEST(TrapEnsemble, TwentyFourHourShiftIsInCalibratedRange) {
  // DESIGN.md Sec. 5: ~35 mV after 24 h DC at the stress reference, which
  // maps to ~2.2 % delay degradation in the FPGA layer.
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  EXPECT_GT(e.delta_vth(), 20e-3);
  EXPECT_LT(e.delta_vth(), 55e-3);
}

TEST(TrapEnsemble, RecoveryDecreasesShiftMonotonically) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  double prev = e.delta_vth();
  for (int i = 0; i < 12; ++i) {
    e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(0.5)});
    const double now = e.delta_vth();
    EXPECT_LE(now, prev);
    prev = now;
  }
}

TEST(TrapEnsemble, RecoveryIsFastThenSlow) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  const double stressed = e.delta_vth();
  e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(1.0)});
  const double first_hour_gain = stressed - e.delta_vth();
  e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(1.0)});
  const double second_hour_gain = stressed - first_hour_gain - e.delta_vth() +
                                  0.0;  // == gain during hour 2
  EXPECT_GT(first_hour_gain, 2.0 * std::max(second_hour_gain, 0.0));
}

TEST(TrapEnsemble, PassiveRecoveryIsPartial) {
  // R20Z6-style: 6 h power-gated at 20 C recovers far less than the
  // accelerated conditions — the motivation for the whole paper.
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  const double stressed = e.delta_vth();
  e.evolve(recovery(Volts{0.0}, Celsius{20.0}), Seconds{hours(6.0)});
  const double recovered_fraction = 1.0 - e.delta_vth() / stressed;
  EXPECT_GT(recovered_fraction, 0.15);
  EXPECT_LT(recovered_fraction, 0.70);
}

TEST(TrapEnsemble, AcceleratedRecoveryReaches90Percent) {
  // AR110N6: 110 C and -0.3 V for 1/4 of the stress time recovers >= ~90 %
  // of the recoverable damage (headline claim of the paper).
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  const double stressed = e.delta_vth();
  e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(6.0)});
  const double recovered_fraction = 1.0 - e.delta_vth() / stressed;
  EXPECT_GT(recovered_fraction, 0.85);
}

TEST(TrapEnsemble, RecoveryConditionOrderingMatchesFig8) {
  // (110 C, -0.3 V) > (110 C, 0 V) > (20 C, -0.3 V) > (20 C, 0 V).
  const OperatingCondition conds[] = {
      recovery(Volts{-0.3}, Celsius{110.0}), recovery(Volts{0.0}, Celsius{110.0}), recovery(Volts{-0.3}, Celsius{20.0}),
      recovery(Volts{0.0}, Celsius{20.0})};
  double remaining[4] = {};
  for (int i = 0; i < 4; ++i) {
    auto e = fresh(7);  // same chip for all four what-ifs
    e.evolve(ref_stress(), Seconds{hours(24.0)});
    e.evolve(conds[i], Seconds{hours(6.0)});
    remaining[i] = e.delta_vth();
  }
  EXPECT_LT(remaining[0], remaining[1]);
  EXPECT_LT(remaining[1], remaining[2]);
  EXPECT_LT(remaining[2], remaining[3]);
}

TEST(TrapEnsemble, PermanentDamageBoundsRecovery) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  const double permanent = e.permanent_delta_vth();
  EXPECT_GT(permanent, 0.0);
  // A very long, very aggressive recovery cannot go below the permanent part.
  for (int i = 0; i < 100; ++i) e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(24.0)});
  EXPECT_GE(e.delta_vth(), permanent * 0.999);
  EXPECT_NEAR(e.delta_vth(), permanent, permanent * 0.25 + 1e-4);
}

TEST(TrapEnsemble, AcStressShiftIsAQuarterToHalfOfDc) {
  // Device-level AC/DC ratio ~0.27: the *measured* RO-frequency ratio of
  // "about half" (Fig. 4) then emerges at the circuit level because DC
  // stress ages only one of the two transition paths (see fpga tests).
  auto dc = fresh(3);
  auto ac = fresh(3);
  dc.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  ac.evolve(ac_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double ratio = ac.delta_vth() / dc.delta_vth();
  EXPECT_GT(ratio, 0.15);
  EXPECT_LT(ratio, 0.45);
}

TEST(TrapEnsemble, HotterStressDegradesMore) {
  auto hot = fresh(5);
  auto warm = fresh(5);
  hot.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  warm.evolve(dc_stress(Volts{1.2}, Celsius{100.0}), Seconds{hours(24.0)});
  EXPECT_GT(hot.delta_vth(), warm.delta_vth());
  // Table 2 ratio ~ 1.7/2.2.
  EXPECT_NEAR(warm.delta_vth() / hot.delta_vth(), 0.77, 0.12);
}

TEST(TrapEnsemble, HigherVoltageStressDegradesMore) {
  auto nominal = fresh(9);
  auto overdriven = fresh(9);
  nominal.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  overdriven.evolve(dc_stress(Volts{1.4}, Celsius{110.0}), Seconds{hours(24.0)});
  EXPECT_GT(overdriven.delta_vth(), nominal.delta_vth());
}

TEST(TrapEnsemble, UnrecoveredResidueAccumulatesAcrossCycles) {
  // Fig. 1: with symmetric stress/recovery cycles at *passive* recovery,
  // each cycle ends higher than the last.
  auto e = fresh();
  std::vector<double> end_of_cycle;
  for (int cycle = 0; cycle < 4; ++cycle) {
    e.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(4.0)});
    e.evolve(recovery(Volts{0.0}, Celsius{20.0}), Seconds{hours(4.0)});
    end_of_cycle.push_back(e.delta_vth());
  }
  for (std::size_t i = 1; i < end_of_cycle.size(); ++i) {
    EXPECT_GT(end_of_cycle[i], end_of_cycle[i - 1]);
  }
}

TEST(TrapEnsemble, DeterministicForSameSeed) {
  auto a = fresh(1234);
  auto b = fresh(1234);
  a.evolve(ref_stress(), Seconds{hours(3.0)});
  b.evolve(ref_stress(), Seconds{hours(3.0)});
  EXPECT_DOUBLE_EQ(a.delta_vth(), b.delta_vth());
}

TEST(TrapEnsemble, DifferentSeedsGiveSimilarButDistinctDevices) {
  auto a = fresh(1);
  auto b = fresh(2);
  a.evolve(ref_stress(), Seconds{hours(24.0)});
  b.evolve(ref_stress(), Seconds{hours(24.0)});
  EXPECT_NE(a.delta_vth(), b.delta_vth());
  // Statistically alike: within ~40 % of each other.
  EXPECT_NEAR(a.delta_vth() / b.delta_vth(), 1.0, 0.4);
}

TEST(TrapEnsemble, SegmentedEvolutionMatchesSingleSegment) {
  // Exact per-interval solution: 24 x 1 h == 1 x 24 h under constant
  // conditions.
  auto once = fresh(11);
  auto stepped = fresh(11);
  once.evolve(ref_stress(), Seconds{hours(24.0)});
  for (int i = 0; i < 24; ++i) stepped.evolve(ref_stress(), Seconds{hours(1.0)});
  EXPECT_NEAR(once.delta_vth(), stepped.delta_vth(),
              once.delta_vth() * 1e-10);
}

TEST(TrapEnsemble, ResetRestoresFreshState) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  e.reset();
  EXPECT_DOUBLE_EQ(e.delta_vth(), 0.0);
}

TEST(TrapEnsemble, OccupancySnapshotRoundTrips) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{hours(5.0)});
  const auto snapshot = e.occupancies();
  const double shift = e.delta_vth();
  e.evolve(recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(5.0)});
  EXPECT_NE(e.delta_vth(), shift);
  e.set_occupancies(snapshot);
  EXPECT_DOUBLE_EQ(e.delta_vth(), shift);
}

TEST(TrapEnsemble, SnapshotValidatesInput) {
  auto e = fresh();
  EXPECT_THROW(e.set_occupancies(std::vector<double>{0.5}),
               std::invalid_argument);
  std::vector<double> bad(static_cast<std::size_t>(e.trap_count()), 2.0);
  EXPECT_THROW(e.set_occupancies(bad), std::invalid_argument);
}

TEST(TrapEnsemble, RejectsUnsafeConditions) {
  auto e = fresh();
  EXPECT_THROW(e.evolve(recovery(Volts{-0.6}, Celsius{20.0}), Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(e.evolve(dc_stress(Volts{1.2}, Celsius{150.0}), Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(e.evolve(ref_stress(), Seconds{-1.0}), std::invalid_argument);
}

// Non-finite inputs throw before any state changes: each one would
// otherwise poison every trap (NaN passes every ordered comparison).
void expect_rejected(const OperatingCondition& c, Seconds dt) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{60.0});
  const auto before = e.occupancies();
  const auto version = e.state_version();
  EXPECT_THROW(e.evolve(c, dt), std::invalid_argument);
  EXPECT_EQ(e.state_version(), version);
  EXPECT_EQ(e.occupancies(), before);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrapEnsemble, RejectsNanDt) { expect_rejected(ref_stress(), Seconds{kNan}); }

TEST(TrapEnsemble, RejectsNonFiniteVoltage) {
  OperatingCondition c = ref_stress();
  c.voltage_v = Volts{kNan};
  expect_rejected(c, Seconds{60.0});
  c.voltage_v = Volts{kInf};
  expect_rejected(c, Seconds{60.0});
}

TEST(TrapEnsemble, RejectsNonFiniteTemperature) {
  OperatingCondition c = ref_stress();
  c.temperature_k = Kelvin{kNan};
  expect_rejected(c, Seconds{60.0});
  c.temperature_k = Kelvin{-kInf};
  expect_rejected(c, Seconds{60.0});
}

TEST(TrapEnsemble, RejectsNonFiniteDuty) {
  OperatingCondition c = ref_stress();
  c.gate_stress_duty = kNan;
  expect_rejected(c, Seconds{60.0});
  c.gate_stress_duty = kInf;
  expect_rejected(c, Seconds{60.0});
}

TEST(TrapEnsemble, InfiniteDtReachesEquilibrium) {
  auto e = fresh();
  e.evolve(ref_stress(), Seconds{kInf});
  const double shift = e.delta_vth();
  EXPECT_TRUE(std::isfinite(shift));
  EXPECT_GT(shift, 0.0);
  // The equilibrium is a fixed point.
  e.evolve(ref_stress(), Seconds{hours(24.0)});
  EXPECT_NEAR(e.delta_vth(), shift, shift * 1e-12);
}

TEST(TrapEnsemble, MaxShiftBoundsActualShift) {
  auto e = fresh();
  for (int i = 0; i < 10; ++i) e.evolve(ref_stress(), Seconds{hours(24.0)});
  EXPECT_LT(e.delta_vth(), e.max_delta_vth());
}

}  // namespace
}  // namespace ash::bti
