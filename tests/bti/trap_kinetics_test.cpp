#include "ash/bti/trap_kinetics.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

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
// emission rate re and amplitude phi, through the core's own rate law and
// update, with the decay spelled out as std::exp so the core's batched
// decay is checked against the definition, not against itself.  With duty
// 1/2, unit factors and unit time constants the rate law reduces to
// rc = capture_field / 2 and re = emission_bias_boost / 2, both exact in
// binary floating point.
double step(const TrapKinetics& k, double p, double rc, double re, double phi,
            Seconds dt) {
  const double unit = 1.0;
  const TrapKinetics::Scalars s{0.5, phi, 2.0 * rc, 0.0, 2.0 * re, 0.0};
  const TrapKinetics::Rate r = k.rate(s, &unit, &unit, 0);
  return TrapKinetics::relax(p, r.p_inf, std::exp(-r.lambda * dt.value()));
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

TEST(TrapKinetics, BatchedDecayIsStdExpWithItsTwoShortcuts) {
  // decay() gives 1 for lambda <= 0, 0 where lambda * dt > 700 and the
  // bits of std::exp(-lambda * dt) elsewhere, at every array position
  // (the vector lanes and the scalar tail alike).
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> lambda = {
      0.0, -0.0, -1.0, tiny, 1e-300, 1e-17, 1e-3, 0.5, 1.0, 3.0,
      std::nextafter(700.0, 0.0), 700.0, std::nextafter(700.0, 1e3), 745.0,
      1e300, std::numeric_limits<double>::infinity(), 2.5e-2, 17.0, 123.0};
  for (const double dt : {1.0, 1e-9, 3600.0, 86400.0 * 365.0}) {
    for (std::size_t start = 0; start < lambda.size(); ++start) {
      const std::size_t n = lambda.size() - start;
      std::vector<double> got(n);
      TrapKinetics::decay(lambda.data() + start, Seconds{dt}, got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double l = lambda[start + i];
        const double want =
            l <= 0.0 ? 1.0 : (l * dt > 700.0 ? 0.0 : std::exp(-l * dt));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want))
            << "lambda " << l << ", dt " << dt;
      }
    }
  }
}

TEST(TrapKinetics, ConditionMissingTwiceInARowIsPromoted) {
  TrapKinetics k = one_trap();
  double occ = 0.0;
  const OperatingCondition a = dc_stress(Volts{1.2}, Celsius{110.0});
  const OperatingCondition b = dc_stress(Volts{1.2}, Celsius{100.0});
  k.step(a, Seconds{1.0}, &occ);
  k.step(b, Seconds{1.0}, &occ);
  k.step(a, Seconds{1.0}, &occ);
  EXPECT_FALSE(k.cached(a));  // one-shot misses take the transient step
  k.step(a, Seconds{1.0}, &occ);
  EXPECT_TRUE(k.cached(a));  // the second miss in a row is promoted

  // Misses are keyed like the cache, on the clamped duty: duty 1.5 then
  // 2.0 is one condition missing twice.
  OperatingCondition over = b;
  over.gate_stress_duty = 1.5;
  k.step(over, Seconds{1.0}, &occ);
  EXPECT_FALSE(k.cached(b));
  over.gate_stress_duty = 2.0;
  k.step(over, Seconds{1.0}, &occ);
  EXPECT_TRUE(k.cached(b));
}

TEST(TrapKinetics, RejectsRaggedTrapArrays) {
  TrapKinetics::Traps t{{1.0, 2.0}, {1.0}, {0.0}, {0.0}, {0}};
  EXPECT_THROW(TrapKinetics(default_td_parameters(), t, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace ash::bti
