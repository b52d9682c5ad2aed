/// Integration: Section 5's "test results and model validation" —
/// the closed-form model extracted from one chip's measurements must
/// predict other chips and other phases (the paper overlays model curves
/// on every measured figure; these tests enforce the match numerically).

#include <cmath>

#include <gtest/gtest.h>

#include "ash/core/metrics.h"
#include "ash/core/model_fit.h"
#include "ash/fpga/chip.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"

namespace ash {
namespace {

struct Run {
  tb::DataLog log;
  double fresh_delay_s = 0.0;
};

Run run_chip(int id, const tb::TestCase& tc) {
  fpga::FpgaChip chip(tb::paper_chip_config(id, 15));
  tb::ExperimentRunner runner{tb::RunnerConfig{}};
  Run r;
  r.log = runner.run(chip, tc);
  r.fresh_delay_s = r.log.records().front().delay_s.value();
  return r;
}

tb::TestCase stress_recover_case(int chip, const char* rec_label,
                                 double rec_v, double rec_t) {
  tb::TestCase tc;
  tc.name = "validate";
  tc.chip_id = chip;
  tc.phases = {tb::burn_in_phase(),
               tb::dc_stress_phase("AS110DC24", Celsius{110.0}, units::hours(24.0)),
               tb::recovery_phase(rec_label, Volts{rec_v}, Celsius{rec_t}, units::hours(6.0))};
  return tc;
}

TEST(ModelValidation, StressFitIsExcellentOnEveryChip) {
  for (int chip = 1; chip <= 3; ++chip) {
    const auto run =
        run_chip(chip, stress_recover_case(chip, "AR110N6", -0.3, 110.0));
    const auto dtd = core::delay_change_series(
        run.log.delay_series("AS110DC24"), run.fresh_delay_s);
    const auto fit = core::ModelFitter().fit_stress(dtd);
    EXPECT_GT(fit.r_squared, 0.99) << "chip " << chip;
  }
}

TEST(ModelValidation, FitFromOneChipPredictsAnother) {
  // Extract Eq. (10) parameters on chip 1, predict chip 2's curve shape.
  const auto run1 =
      run_chip(1, stress_recover_case(1, "AR110N6", -0.3, 110.0));
  const auto run2 =
      run_chip(2, stress_recover_case(2, "AR110N6", -0.3, 110.0));
  const auto fit = core::ModelFitter().fit_stress(core::delay_change_series(
      run1.log.delay_series("AS110DC24"), run1.fresh_delay_s));

  const auto observed = core::delay_change_series(
      run2.log.delay_series("AS110DC24"), run2.fresh_delay_s);
  // Relative prediction error stays within ~15 % after the first hour.
  for (const auto& s : observed.samples()) {
    if (s.t < hours(1.0)) continue;
    const double predicted = fit.delta_td(s.t);
    EXPECT_NEAR(predicted / s.value, 1.0, 0.15) << "t=" << s.t;
  }
}

TEST(ModelValidation, RecoveryFitTransfersAcrossConditions) {
  // Fit the recovery law on the combined-knob case; its permanent ratio
  // must agree with the fit from the temperature-only case (the parameter
  // is a device property, not a condition property).
  const auto run_both =
      run_chip(5, stress_recover_case(5, "AR110N6", -0.3, 110.0));
  const auto run_hot =
      run_chip(4, stress_recover_case(4, "AR110Z6", 0.0, 110.0));
  const core::ModelFitter fitter;
  const auto fit_both = fitter.fit_recovery(
      core::delay_change_series(run_both.log.delay_series("AR110N6"),
                                run_both.fresh_delay_s),
      hours(24.0));
  const auto fit_hot = fitter.fit_recovery(
      core::delay_change_series(run_hot.log.delay_series("AR110Z6"),
                                run_hot.fresh_delay_s),
      hours(24.0));
  EXPECT_GT(fit_both.r_squared, 0.97);
  EXPECT_GT(fit_hot.r_squared, 0.97);
  // Combined knobs fit a larger acceleration than temperature alone.
  EXPECT_GT(fit_both.acceleration, fit_hot.acceleration);
}

TEST(ModelValidation, ClosedFormPredictsCampaignEndpointsBlind) {
  // No fitting at all: the from_td() closed form must predict the
  // *measured* recovered fraction of the AR110N6 case within 10 pp.
  const auto run =
      run_chip(5, stress_recover_case(5, "AR110N6", -0.3, 110.0));
  const double measured = core::recovered_fraction(
      run.log.delay_series("AR110N6"), run.fresh_delay_s);
  const bti::ClosedFormModel model(
      bti::ClosedFormParameters::from_td(bti::default_td_parameters()));
  const double predicted =
      1.0 - model.remaining_fraction(Seconds{hours(24.0)}, Seconds{hours(6.0)},
                                     bti::recovery(Volts{-0.3}, Celsius{110.0}));
  EXPECT_NEAR(measured, predicted, 0.10);
}

}  // namespace
}  // namespace ash
