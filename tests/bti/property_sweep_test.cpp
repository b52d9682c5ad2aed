/// Property-style parameterized sweeps over the BTI condition space.
///
/// These TEST_P suites assert the model's structural invariants across a
/// grid of operating conditions — monotonicity in every knob, agreement
/// between the stochastic ensemble and its closed-form abstraction, and
/// the bounds that recovery can never violate.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "ash/bti/closed_form.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/util/constants.h"

namespace ash::bti {
namespace {

ClosedFormParameters cf_params() {
  return ClosedFormParameters::from_td(default_td_parameters());
}

// ---------------------------------------------------------------------------
// Sweep 1: stress conditions (voltage x temperature).
// ---------------------------------------------------------------------------

using StressPoint = std::tuple<double, double>;  // (voltage, temp_c)

class StressConditionSweep : public ::testing::TestWithParam<StressPoint> {};

TEST_P(StressConditionSweep, EnsembleMatchesClosedFormWithin35Percent) {
  const auto [v, t_c] = GetParam();
  TrapEnsemble e(default_td_parameters(), 42);
  const ClosedFormModel m(cf_params());
  const auto cond = dc_stress(Volts{v}, Celsius{t_c});
  e.evolve(cond, Seconds{hours(24.0)});
  const double ens = e.delta_vth();
  const double cf = m.stress_delta_vth(Seconds{hours(24.0)}, cond);
  ASSERT_GT(ens, 0.0);
  EXPECT_NEAR(cf / ens, 1.0, 0.35)
      << "V=" << v << " T=" << t_c << " ens=" << ens << " cf=" << cf;
}

TEST_P(StressConditionSweep, StressIsMonotoneInTime) {
  const auto [v, t_c] = GetParam();
  TrapEnsemble e(default_td_parameters(), 7);
  const auto cond = dc_stress(Volts{v}, Celsius{t_c});
  double prev = 0.0;
  for (int i = 0; i < 8; ++i) {
    e.evolve(cond, Seconds{hours(3.0)});
    EXPECT_GE(e.delta_vth(), prev - 1e-12);
    prev = e.delta_vth();
  }
}

TEST_P(StressConditionSweep, ClosedFormAgerTracksStatelessModel) {
  const auto [v, t_c] = GetParam();
  ClosedFormAger ager(cf_params());
  const ClosedFormModel m(cf_params());
  const auto cond = dc_stress(Volts{v}, Celsius{t_c});
  ager.evolve(cond, Seconds{hours(24.0)});
  const double stateless = m.stress_delta_vth(Seconds{hours(24.0)}, cond);
  EXPECT_NEAR(ager.delta_vth(), stateless,
              std::max(stateless, 1e-9) * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StressConditionSweep,
    ::testing::Values(StressPoint{1.1, 90.0}, StressPoint{1.2, 90.0},
                      StressPoint{1.3, 90.0}, StressPoint{1.1, 100.0},
                      StressPoint{1.2, 100.0}, StressPoint{1.3, 100.0},
                      StressPoint{1.1, 110.0}, StressPoint{1.2, 110.0},
                      StressPoint{1.3, 110.0}),
    [](const ::testing::TestParamInfo<StressPoint>& info) {
      const std::string mv =
          std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
      return "V" + mv + "_T" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Sweep 2: recovery conditions (voltage x temperature).
// ---------------------------------------------------------------------------

using RecoveryPoint = std::tuple<double, double>;  // (voltage, temp_c)

class RecoveryConditionSweep
    : public ::testing::TestWithParam<RecoveryPoint> {};

TEST_P(RecoveryConditionSweep, RecoveryNeverIncreasesShift) {
  const auto [v, t_c] = GetParam();
  TrapEnsemble e(default_td_parameters(), 3);
  e.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  double prev = e.delta_vth();
  for (int i = 0; i < 6; ++i) {
    e.evolve(recovery(Volts{v}, Celsius{t_c}), Seconds{hours(1.0)});
    EXPECT_LE(e.delta_vth(), prev + 1e-12);
    prev = e.delta_vth();
  }
}

TEST_P(RecoveryConditionSweep, RecoveryBoundedByPermanentFloor) {
  const auto [v, t_c] = GetParam();
  TrapEnsemble e(default_td_parameters(), 3);
  e.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double perm = e.permanent_delta_vth();
  for (int i = 0; i < 20; ++i) e.evolve(recovery(Volts{v}, Celsius{t_c}), Seconds{hours(24.0)});
  EXPECT_GE(e.delta_vth(), perm * 0.999);
}

TEST_P(RecoveryConditionSweep, ClosedFormRemainingFractionInBounds) {
  const auto [v, t_c] = GetParam();
  const ClosedFormModel m(cf_params());
  for (double t2_h : {0.1, 1.0, 6.0, 48.0}) {
    const double rem =
        m.remaining_fraction(Seconds{hours(24.0)}, Seconds{hours(t2_h)}, recovery(Volts{v}, Celsius{t_c}));
    EXPECT_GE(rem, m.parameters().permanent_ratio - 1e-12);
    EXPECT_LE(rem, 1.0 + 1e-12);
  }
}

TEST_P(RecoveryConditionSweep, EnsembleAndClosedFormAgreeOnRecovery) {
  const auto [v, t_c] = GetParam();
  TrapEnsemble e(default_td_parameters(), 11);
  const ClosedFormModel m(cf_params());
  e.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double damage = e.delta_vth();
  e.evolve(recovery(Volts{v}, Celsius{t_c}), Seconds{hours(6.0)});
  const double remaining_ens = e.delta_vth() / damage;
  const double remaining_cf =
      m.remaining_fraction(Seconds{hours(24.0)}, Seconds{hours(6.0)}, recovery(Volts{v}, Celsius{t_c}));
  // First-order agreement: within 15 percentage points of remaining share.
  EXPECT_NEAR(remaining_ens, remaining_cf, 0.15)
      << "V=" << v << " T=" << t_c;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RecoveryConditionSweep,
    ::testing::Values(RecoveryPoint{0.0, 20.0}, RecoveryPoint{-0.15, 20.0},
                      RecoveryPoint{-0.3, 20.0}, RecoveryPoint{0.0, 65.0},
                      RecoveryPoint{-0.3, 65.0}, RecoveryPoint{0.0, 110.0},
                      RecoveryPoint{-0.15, 110.0},
                      RecoveryPoint{-0.3, 110.0}),
    [](const ::testing::TestParamInfo<RecoveryPoint>& info) {
      const std::string mv =
          std::to_string(static_cast<int>(-std::get<0>(info.param) * 1000));
      return "N" + mv + "mV_T" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---------------------------------------------------------------------------
// Sweep 3: duty cycle.
// ---------------------------------------------------------------------------

class DutySweep : public ::testing::TestWithParam<double> {};

TEST_P(DutySweep, ShiftIsMonotoneInDuty) {
  const double duty = GetParam();
  TrapEnsemble lo(default_td_parameters(), 5);
  TrapEnsemble hi(default_td_parameters(), 5);
  lo.evolve(ac_stress(Volts{1.2}, Celsius{110.0}, duty), Seconds{hours(24.0)});
  hi.evolve(ac_stress(Volts{1.2}, Celsius{110.0}, std::min(1.0, duty + 0.2)), Seconds{hours(24.0)});
  EXPECT_LE(lo.delta_vth(), hi.delta_vth() + 1e-9);
}

TEST_P(DutySweep, ClosedFormAcFactorDecreasesWithIdleShare) {
  const double duty = GetParam();
  const ClosedFormModel m(cf_params());
  const double f1 = m.ac_amplitude_factor(ac_stress(Volts{1.2}, Celsius{110.0}, duty));
  const double f2 =
      m.ac_amplitude_factor(ac_stress(Volts{1.2}, Celsius{110.0}, std::min(1.0, duty + 0.2)));
  EXPECT_LE(f1, f2 + 1e-12);
  EXPECT_GT(f1, 0.0);
  EXPECT_LE(f1, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, DutySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.8),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "duty" + std::to_string(static_cast<int>(
                                               info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Sweep 4: alpha (active/sleep ratio) — Eq. (12)'s central knob.
// ---------------------------------------------------------------------------

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, SteadyCycleResidueGrowsWithAlpha) {
  const double alpha = GetParam();
  ClosedFormAger a(cf_params());
  ClosedFormAger b(cf_params());
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  const auto heal = recovery(Volts{-0.3}, Celsius{110.0});
  const double cycle = hours(30.0);
  for (int i = 0; i < 5; ++i) {
    a.evolve(stress, Seconds{cycle * alpha / (1.0 + alpha)});
    a.evolve(heal, Seconds{cycle / (1.0 + alpha)});
    b.evolve(stress, Seconds{cycle * (2.0 * alpha) / (1.0 + 2.0 * alpha)});
    b.evolve(heal, Seconds{cycle / (1.0 + 2.0 * alpha)});
  }
  // Doubling alpha (less sleep) leaves at least as much residue.
  EXPECT_LE(a.delta_vth(), b.delta_vth() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, AlphaSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "alpha" + std::to_string(static_cast<int>(
                                                info.param));
                         });

}  // namespace
}  // namespace ash::bti
