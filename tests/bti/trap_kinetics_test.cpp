#include "ash/bti/trap_kinetics.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

namespace ash::bti {
namespace {

// A one-trap core with unit time constants.
TrapKinetics one_trap(bool permanent = false) {
  TrapKinetics::Traps t{{1.0}, {1.0}, {0.0}, {0.0},
                        {static_cast<std::uint8_t>(permanent ? 1 : 0)}};
  return TrapKinetics(default_td_parameters(), t, 1);
}

// One exact update of occupancy p under effective capture rate rc,
// emission rate re and amplitude phi, through the core's own rate law,
// decay and update.  With duty 1/2, unit factors and unit time constants
// the rate law reduces to rc = capture_field / 2 and
// re = emission_bias_boost / 2, both exact in binary floating point.
double step(const TrapKinetics& k, double p, double rc, double re, double phi,
            Seconds dt) {
  const double unit = 1.0;
  const TrapKinetics::Scalars s{0.5, phi, 2.0 * rc, 0.0, 2.0 * re, 0.0};
  const TrapKinetics::Rate r = k.rate(s, &unit, &unit, 0);
  return TrapKinetics::relax(p, r.p_inf, TrapKinetics::decay(r.lambda, dt));
}

TEST(Trap, CaptureApproachesAmplitudeNotOne) {
  // Pure capture toward phi = 0.75.
  EXPECT_NEAR(step(one_trap(), 0.0, 1.0, 0.0, 0.75, Seconds{100.0}), 0.75,
              1e-9);
}

TEST(Trap, ExactExponentialSolutionAtOneTau) {
  EXPECT_NEAR(step(one_trap(), 0.0, 1.0, 0.0, 1.0, Seconds{1.0}),
              1.0 - std::exp(-1.0), 1e-12);
}

TEST(Trap, PureEmissionDecays) {
  EXPECT_NEAR(step(one_trap(), 0.8, 0.0, 2.0, 0.0, Seconds{1.0}),
              0.8 * std::exp(-2.0), 1e-12);
}

TEST(Trap, PermanentTrapNeverEmits) {
  EXPECT_DOUBLE_EQ(step(one_trap(true), 0.6, 0.0, 100.0, 0.0, Seconds{1e9}),
                   0.6);
}

TEST(Trap, PermanentTrapStillCaptures) {
  // The emission rate is ignored for a permanent trap.
  EXPECT_NEAR(step(one_trap(true), 0.0, 1.0, 5.0, 0.9, Seconds{100.0}), 0.9,
              1e-9);
}

TEST(Trap, CompetingRatesReachMixedEquilibrium) {
  // rc = re = 1: p_inf = phi / 2.
  EXPECT_NEAR(step(one_trap(), 0.0, 1.0, 1.0, 0.8, Seconds{1000.0}), 0.4,
              1e-9);
}

TEST(Trap, ZeroRatesAndZeroDtAreNoOps) {
  // lambda <= 0 leaves the occupancy bit-exactly unchanged...
  const TrapKinetics k = one_trap();
  EXPECT_EQ(step(k, 0.3, 0.0, 0.0, 1.0, Seconds{100.0}), 0.3);
  // ...and a zero dt is not a step at all.
  EXPECT_FALSE(k.check_step(dc_stress(Volts{1.2}, Celsius{110.0}),
                            Seconds{0.0}));
}

TEST(Trap, EquilibriumDropReleasesExcessOccupancy) {
  // A trap filled at high amplitude relaxes downward when the equilibrium
  // amplitude drops (e.g. stress continues at lower temperature).
  EXPECT_NEAR(step(one_trap(), 0.9, 1.0, 0.0, 0.5, Seconds{1000.0}), 0.5,
              1e-9);
}

TEST(Trap, TwoHalfStepsEqualOneFullStep) {
  // The exact solution must compose: evolving dt then dt equals 2dt.
  const TrapKinetics k = one_trap();
  const double full = step(k, 0.1, 0.7, 0.3, 0.6, Seconds{2.0});
  const double half = step(k, 0.1, 0.7, 0.3, 0.6, Seconds{1.0});
  EXPECT_NEAR(step(k, half, 0.7, 0.3, 0.6, Seconds{1.0}), full, 1e-12);
}

TEST(Trap, HugeExponentDoesNotOverflow) {
  EXPECT_NEAR(step(one_trap(), 0.0, 1e6, 0.0, 0.5, Seconds{1e6}), 0.5, 1e-12);
}

TEST(TrapKinetics, RejectsRaggedTrapArrays) {
  TrapKinetics::Traps t{{1.0, 2.0}, {1.0}, {0.0}, {0.0}, {0}};
  EXPECT_THROW(TrapKinetics(default_td_parameters(), t, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace ash::bti
