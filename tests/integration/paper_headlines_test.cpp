/// Integration tests: the paper's headline numbers, end to end.
///
/// These run the virtual lab through (reduced) Table 1 schedules and assert
/// the quantitative claims of the paper's abstract and evaluation — the
/// same checks `ash_lab reproduce` prints, but enforced.  A 15-stage RO keeps
/// the suite fast; the physics is per-device, so ratios match the 75-stage
/// CUT up to averaging noise.

#include <gtest/gtest.h>

#include "ash/core/metrics.h"
#include "ash/tb/experiment_runner.h"
#include "ash/util/constants.h"
#include "ash/util/thread_pool.h"

namespace ash {
namespace {

struct RunResult {
  tb::DataLog log;
  double fresh_delay_s = 0.0;
  double fresh_frequency_hz = 0.0;
};

double end_degradation(const RunResult& r, const std::string& phase) {
  const auto f = r.log.frequency_series(phase);
  return 1.0 - f.back().value / r.fresh_frequency_hz;
}

class PaperCampaign : public ::testing::Test {
 protected:
  // One shared campaign run for the whole suite (expensive setup).
  static void SetUpTestSuite() {
    results_ = new std::vector<RunResult>();
    util::ThreadPool pool(util::recommended_pool_size(5));
    for (auto& result : tb::run_paper_campaign(pool, tb::RunnerConfig{}, 15)) {
      RunResult r;
      r.log = std::move(result.log);
      r.fresh_delay_s = r.log.records().front().delay_s.value();
      r.fresh_frequency_hz = r.log.records().front().frequency_hz.value();
      results_->push_back(std::move(r));
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }
  static const RunResult& chip(int id) {
    return results_->at(static_cast<std::size_t>(id - 1));
  }
  static std::vector<RunResult>* results_;
};

std::vector<RunResult>* PaperCampaign::results_ = nullptr;

TEST_F(PaperCampaign, Table2DcDegradationAt110C) {
  // Paper: ~2.2 %.
  const double deg = end_degradation(chip(2), "AS110DC24");
  EXPECT_GT(deg, 0.017);
  EXPECT_LT(deg, 0.028);
}

TEST_F(PaperCampaign, Table2DcDegradationAt100C) {
  // Paper: ~1.7 %, i.e. ~0.77x of the 110 degC case.
  const double deg100 = end_degradation(chip(4), "AS100DC24");
  const double deg110 = end_degradation(chip(2), "AS110DC24");
  EXPECT_GT(deg100, 0.012);
  EXPECT_LT(deg100, 0.022);
  EXPECT_NEAR(deg100 / deg110, 0.77, 0.12);
}

TEST_F(PaperCampaign, Fig4AcIsAboutHalfOfDc) {
  const double ac = end_degradation(chip(1), "AS110AC24");
  const double dc = end_degradation(chip(2), "AS110DC24");
  EXPECT_GT(ac / dc, 0.35);
  EXPECT_LT(ac / dc, 0.70);
}

TEST_F(PaperCampaign, Fig4FastThenSlowShape) {
  // A large share of the 24 h DC damage lands in the first 3 hours, but
  // clearly not all of it.
  const auto f = chip(2).log.frequency_series("AS110DC24");
  const double fresh = chip(2).fresh_frequency_hz;
  const double at3h = 1.0 - f.at(hours(3.0)) / fresh;
  const double at24h = 1.0 - f.back().value / fresh;
  EXPECT_GT(at3h / at24h, 0.50);
  EXPECT_LT(at3h / at24h, 0.85);
}

TEST_F(PaperCampaign, HeadlineAcceleratedCasesRecoverMostDamage) {
  // Abstract: "bring stressed chips back to within 90 % of their original
  // margin by actively rejuvenating for only 1/4 of the stress time".
  struct Case {
    int chip;
    const char* phase;
    double min_recovered;
  };
  for (const auto& c : {Case{3, "AR20N6", 0.78}, Case{4, "AR110Z6", 0.80},
                        Case{5, "AR110N6", 0.90}}) {
    const double frac = core::recovered_fraction(
        chip(c.chip).log.delay_series(c.phase), chip(c.chip).fresh_delay_s);
    EXPECT_GT(frac, c.min_recovered) << c.phase;
  }
}

TEST_F(PaperCampaign, PassiveRecoveryIsClearlyPartial) {
  const double frac = core::recovered_fraction(
      chip(2).log.delay_series("R20Z6"), chip(2).fresh_delay_s);
  EXPECT_GT(frac, 0.30);
  EXPECT_LT(frac, 0.70);
}

TEST_F(PaperCampaign, Fig8RecoveryOrderingHolds) {
  // Normalized remaining damage after 1 h of recovery, per condition.
  const auto remaining_frac = [&](int id, const char* phase) {
    const auto& r = chip(id);
    const auto d = r.log.delay_series(phase);
    const double damage0 = d.front().value - r.fresh_delay_s;
    const double damage1h = d.at(hours(1.0)) - r.fresh_delay_s;
    return damage1h / damage0;
  };
  const double hot_neg = remaining_frac(5, "AR110N6");
  const double hot = remaining_frac(4, "AR110Z6");
  const double neg = remaining_frac(3, "AR20N6");
  const double passive = remaining_frac(2, "R20Z6");
  EXPECT_LT(hot_neg, hot + 0.03);
  EXPECT_LT(hot, neg + 0.03);
  EXPECT_LT(neg, passive);
}

TEST_F(PaperCampaign, Table4MarginRelaxedNearPaperValue) {
  // Paper: 72.4 % for the best case.  (Our guardband convention maps the
  // ~90 % recovered fraction to ~72-77 %.)
  const double relaxed = core::design_margin_relaxed(
      chip(5).log.delay_series("AR110N6"), chip(5).fresh_delay_s);
  EXPECT_GT(relaxed, 0.64);
  EXPECT_LT(relaxed, 0.82);
}

TEST_F(PaperCampaign, Table5SameAlphaSameMarginRelaxed) {
  const auto& r5 = chip(5);
  const double relaxed6 = core::design_margin_relaxed(
      r5.log.delay_series("AR110N6"), r5.fresh_delay_s);
  const double fresh2 = r5.log.delay_series("AS110DC48").front().value;
  const double relaxed12 = core::design_margin_relaxed(
      r5.log.delay_series("AR110N12"), fresh2);
  EXPECT_NEAR(relaxed6, relaxed12, 0.06);
}

TEST_F(PaperCampaign, RecoverySamplingCadenceIsThirtyMinutes) {
  const auto recs = chip(5).log.phase_records("AR110N6");
  ASSERT_GE(recs.size(), 3u);
  EXPECT_NEAR((recs[1].t_phase_s - recs[0].t_phase_s).value(), 1800.0, 1.0);
}

TEST_F(PaperCampaign, BurnInBarelyAgesTheChips) {
  // Room-temperature burn-in is a baseline, not a stress: < 0.3 %.
  for (int id = 1; id <= 5; ++id) {
    const double deg = end_degradation(chip(id), "BURNIN");
    EXPECT_LT(deg, 0.003) << "chip " << id;
    EXPECT_GT(deg, -0.001) << "chip " << id;
  }
}

}  // namespace
}  // namespace ash
