/// `ash_lab reproduce` — the paper reproduction: every experiment of
/// DESIGN.md Sec. 4 as a section opening with a banner that names the
/// figure, table or ablation and the paper's claim, then the Claims section
/// (tools/reproduce_claims.cpp).  This file schedules the run and holds the
/// sections built on pool work: Figs. 4-8, Tables 2-5 and Ablation L from
/// one run of the five Table 1 chips, Ablations F and K, and the
/// fault-tolerance ablation; the rest run inline (reproduce_models.cpp).

#include "reproduce.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/bti/reaction_diffusion.h"
#include "ash/core/lifetime.h"
#include "ash/core/metrics.h"
#include "ash/core/model_fit.h"
#include "ash/core/statistical.h"
#include "ash/fpga/chip.h"
#include "ash/obs/metrics.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/fault.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"
#include "ash/util/crc32.h"
#include "ash/util/random.h"
#include "ash/util/stats.h"
#include "ash/util/table.h"
#include "ash/util/thread_pool.h"

namespace ash::lab {

std::vector<double> chart_row(const Series& series, std::size_t n) {
  const Series resampled = series.resampled(n);
  std::vector<double> row;
  row.reserve(resampled.size());
  for (const auto& p : resampled.samples()) row.push_back(p.value);
  return row;
}

namespace {

using Campaign = std::vector<tb::CampaignResult>;

/// Chip `id`'s sample log (results are in chip order, chips 1..5).
const tb::DataLog& chip(const Campaign& campaign, int id) {
  return campaign.at(static_cast<std::size_t>(id - 1)).log;
}

/// A chip's first usable measurement is its fresh reference, as in the
/// paper: all later metrics are relative to it.  In a clean lab that is the
/// first record.
double fresh_delay_s(const tb::DataLog& log) {
  for (const auto& r : log.records()) {
    if (r.usable()) return r.delay_s.value();
  }
  return 0.0;
}

/// DeltaTd(t) series (in ns) for one phase, relative to the fresh delay.
Series delay_change_ns(const tb::DataLog& log, const std::string& phase) {
  return core::delay_change_series(log.delay_series(phase), fresh_delay_s(log))
      .mapped([](double v) { return v * 1e9; });
}

/// Frequency-degradation (%) series for one phase.
Series degradation_percent(const tb::DataLog& log, const std::string& phase) {
  return core::frequency_degradation_series(
             log.frequency_series(phase),
             log.records().front().frequency_hz.value())
      .mapped([](double v) { return v * 100.0; });
}

/// Recovered-delay series (Eq. (16)) in ns for a recovery phase.
Series recovered_delay_ns(const tb::DataLog& log, const std::string& phase) {
  return core::recovered_delay_series(log.delay_series(phase))
      .mapped([](double v) { return v * 1e9; });
}

/// Eq. (11) fit of a recovery phase after the campaign's 24 h stress; chip
/// 4 stressed at 100 degC, so its stress time is converted to
/// reference-equivalent time.
core::RecoveryFit fit_recovery(const tb::DataLog& run, int chip_id,
                               const char* phase) {
  const auto remaining =
      core::delay_change_series(run.delay_series(phase), fresh_delay_s(run));
  const core::ModelFitter fitter;
  const bti::ClosedFormModel prior(fitter.priors());
  const double afc =
      chip_id == 4 ? prior.capture_acceleration(Volts{1.2}, Kelvin{celsius(100.0)}) : 1.0;
  return fitter.fit_recovery(remaining, hours(24.0) * afc);
}

/// Figure 4, "AC/DC stress test results": RO frequency degradation over
/// 24 h of accelerated stress at 110 degC, AC (chip 1) vs DC (chip 2):
/// fast degradation in the first ~3 hours, then slowing.
void fig4(const Campaign& campaign, Claims& claims) {
  print_banner("Figure 4 — AC vs DC accelerated stress (24 h @ 110 degC)",
               paper_text({"fig4.dc_share_3h", "fig4.ac_over_dc"}));

  const auto ac = degradation_percent(chip(campaign, 1), "AS110AC24");
  const auto dc = degradation_percent(chip(campaign, 2), "AS110DC24");

  Table t({"time (h)", "AC stress (%)", "DC stress (%)"});
  for (double h : {0.0, 1.0, 3.0, 6.0, 12.0, 18.0, 24.0}) {
    t.add_row({fmt_fixed(h, 1), fmt_fixed(ac.at(hours(h)), 2),
               fmt_fixed(dc.at(hours(h)), 2)});
  }
  std::printf("%s\n", t.render().c_str());

  claims["fig4.ac_over_dc"] = ac.back().value / dc.back().value;
  claims["fig4.dc_share_3h"] = dc.at(hours(3.0)) / dc.back().value;

  std::printf("%s\n", ascii_chart({"DC stress", "AC stress"},
                                  {chart_row(dc, 48), chart_row(ac, 48)})
                          .c_str());
}

/// Figure 5, "Accelerated wearout with 110 degC and 100 degC for 1 day":
/// measured delay change over time for chips 5 (110 degC) and 4 (100 degC),
/// with the extracted first-order model (Eq. (10)) overlaid.  Shape: fast
/// initial degradation, then logarithmic slowing; higher temperature
/// degrades more; model tracks measurement.
void fig5(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Figure 5 — accelerated wearout at 110 vs 100 degC (24 h DC)",
      "log-like delay growth; 110 degC > 100 degC; model matches measurement");

  const auto d110 = delay_change_ns(chip(campaign, 5), "AS110DC24");
  const auto d100 = delay_change_ns(chip(campaign, 4), "AS100DC24");

  const core::ModelFitter fitter;
  const auto fit110 = fitter.fit_stress(
      d110.mapped([](double ns) { return ns * 1e-9; }));
  const auto fit100 = fitter.fit_stress(
      d100.mapped([](double ns) { return ns * 1e-9; }));

  Table t({"time (h)", "110C meas (ns)", "110C model (ns)", "100C meas (ns)",
           "100C model (ns)"});
  for (double h : {0.5, 1.0, 3.0, 6.0, 12.0, 18.0, 24.0}) {
    t.add_row({fmt_fixed(h, 1), fmt_fixed(d110.at(hours(h)), 2),
               fmt_fixed(fit110.delta_td(hours(h)) * 1e9, 2),
               fmt_fixed(d100.at(hours(h)), 2),
               fmt_fixed(fit100.delta_td(hours(h)) * 1e9, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  claims["fig5.dc110_delay"] =
      d110.back().value * 1e-9 / fresh_delay_s(chip(campaign, 5));
  claims["fig5.delay_100_over_110"] = d100.back().value / d110.back().value;
  claims["fig5.fit_r2"] = std::min(fit110.r_squared, fit100.r_squared);

  std::printf("%s\n", ascii_chart({"110C measurement", "100C measurement"},
                                  {chart_row(d110, 64), chart_row(d100, 64)})
                          .c_str());
}

/// One recovery case of Figure 6: measured recovered delay, its recovery-
/// law fit and the damage it started from.
struct RecoveryCase {
  Series rd_ns;  // recovered delay, measured
  core::RecoveryFit fit;
  double damage_ns;  // DeltaTd(t1)
  double recovered;  // share of the damage healed by the end (Table 4's)
};

RecoveryCase recovery_case(const Campaign& campaign, int chip_id,
                           const char* phase) {
  const tb::DataLog& run = chip(campaign, chip_id);
  const auto delay = run.delay_series(phase);
  return {recovered_delay_ns(run, phase), fit_recovery(run, chip_id, phase),
          (delay.front().value - fresh_delay_s(run)) * 1e9,
          core::recovered_fraction(delay, fresh_delay_s(run))};
}

void print_pane(const char* title, const RecoveryCase& zero,
                const RecoveryCase& neg) {
  std::printf("--- %s ---\n", title);
  Table t({"time (h)", "0V meas (ns)", "0V model (ns)", "-0.3V meas (ns)",
           "-0.3V model (ns)"});
  for (double h : {0.0, 0.3, 1.0, 2.0, 4.0, 6.0}) {
    const double t2 = hours(h);
    const auto model_rd = [&](const RecoveryCase& c) {
      return c.damage_ns * (1.0 - c.fit.remaining_fraction(t2));
    };
    t.add_row({fmt_fixed(h, 1), fmt_fixed(zero.rd_ns.at(t2), 2),
               fmt_fixed(model_rd(zero), 2), fmt_fixed(neg.rd_ns.at(t2), 2),
               fmt_fixed(model_rd(neg), 2)});
  }
  std::printf("%s\n", t.render().c_str());
}

/// Figure 6, "Recover at (a) 20 degC (b) 110 degC": recovered delay
/// (Eq. (16)) over 6 h of sleep, comparing 0 V vs -0.3 V at each
/// temperature, with the fitted recovery model overlaid.  Shape: the
/// negative rail accelerates recovery markedly at both temperatures.
void fig6(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Figure 6 — recovery with negative voltage at (a) 20 degC (b) 110 degC",
      "-0.3 V markedly accelerates recovery at both temperatures");

  const auto r20z = recovery_case(campaign, 2, "R20Z6");
  const auto r20n = recovery_case(campaign, 3, "AR20N6");
  const auto r110z = recovery_case(campaign, 4, "AR110Z6");
  const auto r110n = recovery_case(campaign, 5, "AR110N6");

  print_pane("(a) 20 degC", r20z, r20n);
  print_pane("(b) 110 degC", r110z, r110n);

  claims["fig6.passive_partial"] = r20z.recovered;
  claims["fig6.neg_beats_zero_20C"] = r20n.recovered - r20z.recovered;
  claims["fig6.neg_beats_zero_110C"] =
      r110n.rd_ns.at(hours(0.3)) - r110z.rd_ns.at(hours(0.3));
}

/// Figure 7, "Recover under (a) 0 V (b) -0.3 V": the same four recovery
/// cases as Fig. 6 re-sliced by supply rail, showing that high temperature
/// accelerates recovery at either rail.
void fig7(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Figure 7 — recovery at high temperature under (a) 0 V (b) -0.3 V",
      "110 degC recovers faster than 20 degC at either supply rail");

  const auto rd_20z = recovered_delay_ns(chip(campaign, 2), "R20Z6");
  const auto rd_20n = recovered_delay_ns(chip(campaign, 3), "AR20N6");
  const auto rd_110z = recovered_delay_ns(chip(campaign, 4), "AR110Z6");
  const auto rd_110n = recovered_delay_ns(chip(campaign, 5), "AR110N6");

  std::printf("--- (a) 0 V ---\n");
  Table a({"time (h)", "20 degC (ns)", "110 degC (ns)"});
  for (double h : {0.0, 0.3, 1.0, 2.0, 4.0, 6.0}) {
    a.add_row({fmt_fixed(h, 1), fmt_fixed(rd_20z.at(hours(h)), 2),
               fmt_fixed(rd_110z.at(hours(h)), 2)});
  }
  std::printf("%s\n", a.render().c_str());

  std::printf("--- (b) -0.3 V ---\n");
  Table b({"time (h)", "20 degC (ns)", "110 degC (ns)"});
  for (double h : {0.0, 0.3, 1.0, 2.0, 4.0, 6.0}) {
    b.add_row({fmt_fixed(h, 1), fmt_fixed(rd_20n.at(hours(h)), 2),
               fmt_fixed(rd_110n.at(hours(h)), 2)});
  }
  std::printf("%s\n", b.render().c_str());

  // Compare early-time recovery speed (before saturation) — the paper's
  // "high temperature not only accelerates wearout, but also accelerates
  // recovery".
  claims["fig7.hot_beats_cold_0V"] =
      rd_110z.at(hours(1.0)) - rd_20z.at(hours(1.0));
  claims["fig7.hot_beats_cold_neg"] =
      rd_110n.at(hours(1.0)) - rd_20n.at(hours(1.0));
}

/// Figure 8, "Delay change over time during recovery": DeltaTd(t) for all
/// four recovery conditions on one axis, with the closed-form model
/// overlaid.  Ordering at every time: (110 degC, -0.3 V) heals deepest,
/// then (110 degC, 0 V), then (20 degC, -0.3 V), then (20 degC, 0 V).
void fig8(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Figure 8 — delay change during recovery, four conditions + model",
      "ordering: 110C/-0.3V < 110C/0V < 20C/-0.3V < 20C/0V remaining");

  struct Case {
    const char* label;
    int chip;
    const char* phase;
    bti::OperatingCondition cond;
  };
  const Case cases[] = {
      {"110C & -0.3V", 5, "AR110N6", bti::recovery(Volts{-0.3}, Celsius{110.0})},
      {"110C & 0V", 4, "AR110Z6", bti::recovery(Volts{0.0}, Celsius{110.0})},
      {"20C & -0.3V", 3, "AR20N6", bti::recovery(Volts{-0.3}, Celsius{20.0})},
      {"20C & 0V", 2, "R20Z6", bti::recovery(Volts{0.0}, Celsius{20.0})},
  };

  const bti::ClosedFormModel model(
      bti::ClosedFormParameters::from_td(bti::default_td_parameters()));

  std::vector<Series> measured;
  std::vector<double> t1_equiv;
  for (const auto& c : cases) {
    const tb::DataLog& run = chip(campaign, c.chip);
    const double fresh = fresh_delay_s(run);
    measured.push_back(run.delay_series(c.phase).mapped(
        [&](double d) { return (d - fresh) * 1e9; }));
    t1_equiv.push_back(
        c.chip == 4 ? hours(24.0) * model.capture_acceleration(
                                        Volts{1.2}, Kelvin{celsius(100.0)})
                    : hours(24.0));
  }

  Table t({"time (h)", "110C/-0.3V meas", "model", "110C/0V meas", "model",
           "20C/-0.3V meas", "model", "20C/0V meas", "model"});
  for (double h : {0.0, 0.3, 1.0, 2.0, 4.0, 6.0}) {
    std::vector<std::string> row{fmt_fixed(h, 1)};
    for (std::size_t i = 0; i < 4; ++i) {
      const double d0 = measured[i].front().value;
      row.push_back(fmt_fixed(measured[i].at(hours(h)), 2));
      row.push_back(fmt_fixed(
          d0 * model.remaining_fraction(Seconds{t1_equiv[i]}, Seconds{hours(h)}, cases[i].cond),
          2));
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.render().c_str());

  // The ordering at every sample after the sleep starts, normalized to the
  // per-case starting damage so chip-to-chip variation cancels: the
  // smallest gap between neighbouring conditions must stay positive.
  double smallest_gap = INFINITY;
  for (const auto& sample : measured[0].samples()) {
    if (sample.t <= measured[0].front().t) continue;
    for (std::size_t i = 0; i + 1 < 4; ++i) {
      smallest_gap = std::min(
          smallest_gap,
          measured[i + 1].at(sample.t) / measured[i + 1].front().value -
              measured[i].at(sample.t) / measured[i].front().value);
    }
  }
  claims["fig8.ordering"] = smallest_gap;

  std::vector<std::vector<double>> chart_rows;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < 4; ++i) {
    chart_rows.push_back(chart_row(measured[i], 48));
    labels.push_back(cases[i].label);
  }
  std::printf("%s\n", ascii_chart(labels, chart_rows).c_str());
}

/// Table 2, "Delay change (%) for different temperature conditions":
/// end-of-stress frequency/delay degradation for the accelerated-stress
/// cases.
void table2(const Campaign& campaign, Claims& claims) {
  print_banner("Table 2 — delay change (%) per stress condition (24 h)",
               paper_text({"table2.dc110", "table2.dc100", "table2.ac110"}));

  struct Row {
    const char* case_label;
    int chip;
    const char* phase;
  };
  const Row rows[] = {
      {"AS110DC24", 2, "AS110DC24"},
      {"AS110DC24 (chip 3)", 3, "AS110DC24"},
      {"AS110DC24 (chip 5)", 5, "AS110DC24"},
      {"AS100DC24", 4, "AS100DC24"},
      {"AS110AC24", 1, "AS110AC24"},
  };

  Table t({"case", "chip", "measured"});
  for (const auto& r : rows) {
    const auto deg = degradation_percent(chip(campaign, r.chip), r.phase);
    t.add_row({r.case_label, strformat("%d", r.chip),
               fmt_fixed(deg.back().value, 2) + "%"});
  }
  std::printf("%s\n", t.render().c_str());

  const auto end = [&](int id, const char* phase) {
    return degradation_percent(chip(campaign, id), phase).back().value / 100;
  };
  claims["table2.dc110"] = end(2, "AS110DC24");
  claims["table2.dc100"] = end(4, "AS100DC24");
  claims["table2.ac110"] = end(1, "AS110AC24");
  claims["table2.dc100_over_dc110"] =
      end(4, "AS100DC24") / end(2, "AS110DC24");
  // Every chip's stress starts from burn-in, which must barely age it.
  std::vector<double> burn_in;
  for (int id = 1; id <= 5; ++id) burn_in.push_back(end(id, "BURNIN"));
  claims["table1.burnin_most"] = std::ranges::max(burn_in);
  claims["table1.burnin_least"] = std::ranges::min(burn_in);
}

/// Table 3, "Extracted parameters": Eq. (10)'s fitting parameters
/// (amplitude beta*A and C = 1/tau) extracted from the measured stress
/// curves, plus the recovery-law parameters (acceleration, permanent ratio)
/// from the recovery curves — exactly the procedure the paper uses to
/// overlay its model on Figures 5-8.
void table3(const Campaign& campaign) {
  print_banner(
      "Table 3 — extracted model parameters (Eq. (10) / Eq. (11) fits)",
      "first-order model parameters extracted from measurement");

  const core::ModelFitter fitter;

  std::printf("--- stress law: DeltaTd(t) = amplitude * ln(1 + C t) ---\n");
  Table t({"case", "chip", "amplitude (ns)", "C (1/s)", "RMSE (ps)", "R^2"});
  struct StressRow {
    const char* phase;
    int chip;
  };
  for (const auto& r : {StressRow{"AS110DC24", 2}, StressRow{"AS110DC24", 5},
                        StressRow{"AS100DC24", 4}, StressRow{"AS110AC24", 1}}) {
    const auto series = delay_change_ns(chip(campaign, r.chip), r.phase)
                            .mapped([](double ns) { return ns * 1e-9; });
    const auto fit = fitter.fit_stress(series);
    t.add_row({r.phase, strformat("%d", r.chip),
               fmt_fixed(fit.amplitude_s.value() * 1e9, 3),
               strformat("%.2e", 1.0 / fit.tau_s.value()),
               fmt_fixed(fit.rmse_s.value() * 1e12, 1), fmt_fixed(fit.r_squared, 4)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf(
      "--- recovery law: remaining = perm + (1-perm) ... (Eq. (11)) ---\n");
  Table r({"case", "chip", "acceleration AF", "permanent ratio", "R^2"});
  struct RecRow {
    const char* phase;
    int chip;
  };
  for (const auto& rr : {RecRow{"R20Z6", 2}, RecRow{"AR20N6", 3},
                         RecRow{"AR110Z6", 4}, RecRow{"AR110N6", 5}}) {
    const auto fit = fit_recovery(chip(campaign, rr.chip), rr.chip, rr.phase);
    r.add_row({rr.phase, strformat("%d", rr.chip),
               strformat("%.1f", fit.acceleration),
               fmt_fixed(fit.permanent_ratio, 3),
               fmt_fixed(fit.r_squared, 4)});
  }
  std::printf("%s\n", r.render().c_str());

  std::printf(
      "note: the calibrated generative constants are tau_stress = 120 s,\n"
      "AF(110C) ~ 28, AF(-0.3V) ~ 15, permanent ratio 0.04 — the fits\n"
      "should land near these up to counter noise and saturation.\n");
}

/// Table 4, "Design margin relaxed parameter" per recovery condition.
/// Definition (see ash::core::metrics.h): RD(end) / M with the design
/// margin M = 1.25 x DeltaTd(stress end), so the recovered fraction and the
/// margin relaxed of the paper's headline pair come from one definition.
void table4(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Table 4 — design-margin-relaxed parameter per recovery condition",
      paper_text({"table4.best_relaxed", "table4.recovered_AR110N6"}));

  // Chips 2-5 run the four recovery cases in this order.
  const char* const phases[] = {"R20Z6", "AR20N6", "AR110Z6", "AR110N6"};
  Table t({"case", "recovered fraction", "margin relaxed"});
  for (int id = 2; id <= 5; ++id) {
    const std::string phase = phases[id - 2];
    const tb::DataLog& run = chip(campaign, id);
    const auto delay = run.delay_series(phase);
    const double frac = core::recovered_fraction(delay, fresh_delay_s(run));
    const double relaxed =
        core::design_margin_relaxed(delay, fresh_delay_s(run));
    t.add_row({phase, fmt_percent(frac, 1), fmt_percent(relaxed, 1)});
    // The accelerated (AR*) cases carry the abstract's ~90 % claim.
    if (id > 2) claims["table4.recovered_" + phase] = frac;
    if (id == 5) claims["table4.best_relaxed"] = relaxed;
  }
  std::printf("%s\n", t.render().c_str());
}

/// Table 5, "Ratio of active vs. sleep time": chip 5 is recovered after
/// 24 h of stress (AR110N6) and again after being re-stressed for 48 h
/// (AR110N12).  Both rounds use alpha = 4; the paper's finding is that the
/// same design-margin-relaxed parameter is achieved despite the different
/// absolute stress — the ratio, not the duration, is what matters.
void table5(const Campaign& campaign, Claims& claims) {
  print_banner(
      "Table 5 — same alpha = 4, different stress durations (chip 5)",
      "AR110N6 and AR110N12 achieve the same margin-relaxed parameter");

  const tb::DataLog& chip5 = chip(campaign, 5);

  // Round 2's "fresh" reference: the chip state right after round 1's
  // recovery (start of AS110DC48), because round 1's permanent damage is
  // part of round 2's baseline.
  const double fresh1 = fresh_delay_s(chip5);
  const double fresh2 = chip5.delay_series("AS110DC48").front().value;

  const double relaxed6 =
      core::design_margin_relaxed(chip5.delay_series("AR110N6"), fresh1);
  const double relaxed12 =
      core::design_margin_relaxed(chip5.delay_series("AR110N12"), fresh2);

  Table t({"round", "stress", "sleep", "alpha", "margin relaxed"});
  t.add_row({"1", "24 h @110C DC", "6 h @110C/-0.3V", "4",
             fmt_percent(relaxed6, 1)});
  t.add_row({"2", "48 h @110C DC", "12 h @110C/-0.3V", "4",
             fmt_percent(relaxed12, 1)});
  std::printf("%s\n", t.render().c_str());

  claims["table5.same_relaxed"] = std::abs(relaxed6 - relaxed12);
}

/// Ablation L, "Physics Matters": TD vs RD.  Ref. [15], the device model
/// the paper builds on, argued that Trapping/Detrapping beats the classic
/// Reaction-Diffusion picture because only TD explains *recovery*.  Both
/// models fit the accelerated stress data almost equally well (a power law
/// mimics a log over two decades), but RD's universal recovery curve is
/// condition-blind — it cannot produce the spread the four sleep
/// conditions measure, which is the very effect the paper engineers.
void ablation_model_selection(const Campaign& campaign) {
  print_banner(
      "Ablation L — model selection: Trapping/Detrapping vs Reaction-"
      "Diffusion",
      "stress data cannot separate the models; recovery data rejects RD");

  // --- Stress-side fits: both models vs the measured AS110DC24 curve.
  const tb::DataLog& chip2 = chip(campaign, 2);
  const auto dtd = core::delay_change_series(chip2.delay_series("AS110DC24"),
                                             fresh_delay_s(chip2));
  const auto td_fit = core::ModelFitter().fit_stress(dtd);
  const auto rd_fit = bti::fit_rd_stress(dtd, bti::RdParameters{}, true);

  Table s({"model", "law", "fit R^2 (stress)"});
  s.add_row({"TD (ref [15], this paper)",
             "beta*ln(1 + C t)", fmt_fixed(td_fit.r_squared, 4)});
  s.add_row({"RD (classic)",
             strformat("A*t^%.3f", rd_fit.time_exponent),
             fmt_fixed(rd_fit.r_squared, 4)});
  std::printf("%s\n", s.render().c_str());

  // --- Recovery-side predictions vs the four measured conditions.
  bti::RdParameters rd_params;
  const bti::RdModel rd(rd_params);
  const bti::ClosedFormModel td(
      bti::ClosedFormParameters::from_td(bti::default_td_parameters()));

  struct Case {
    const char* label;
    int chip;
    const char* phase;
    bti::OperatingCondition cond;
  };
  const Case cases[] = {
      {"R20Z6 (20C, 0V)", 2, "R20Z6", bti::recovery(Volts{0.0}, Celsius{20.0})},
      {"AR20N6 (20C, -0.3V)", 3, "AR20N6", bti::recovery(Volts{-0.3}, Celsius{20.0})},
      {"AR110Z6 (110C, 0V)", 4, "AR110Z6", bti::recovery(Volts{0.0}, Celsius{110.0})},
      {"AR110N6 (110C, -0.3V)", 5, "AR110N6", bti::recovery(Volts{-0.3}, Celsius{110.0})},
  };

  Table r({"condition", "measured remaining @6 h", "TD prediction",
           "RD prediction"});
  double rd_worst_error = 0.0;
  double td_worst_error = 0.0;
  for (const auto& c : cases) {
    const tb::DataLog& run = chip(campaign, c.chip);
    const auto delay = run.delay_series(c.phase);
    const double measured = (delay.back().value - fresh_delay_s(run)) /
                            (delay.front().value - fresh_delay_s(run));
    const double td_pred =
        td.remaining_fraction(Seconds{hours(24.0)}, Seconds{hours(6.0)}, c.cond);
    const double rd_pred = rd.remaining_fraction(Seconds{hours(24.0)}, Seconds{hours(6.0)});
    td_worst_error = std::max(td_worst_error, std::abs(td_pred - measured));
    rd_worst_error = std::max(rd_worst_error, std::abs(rd_pred - measured));
    r.add_row({c.label, fmt_percent(measured, 0), fmt_percent(td_pred, 0),
               fmt_percent(rd_pred, 0)});
  }
  std::printf("%s\n", r.render().c_str());

  Table v({"verdict", "TD", "RD"});
  v.add_row({"worst |prediction - measurement|",
             fmt_percent(td_worst_error, 0), fmt_percent(rd_worst_error, 0)});
  v.add_row({"explains condition dependence?", "yes",
             "no (universal curve)"});
  std::printf("%s\n", v.render().c_str());
  std::printf(
      "reading: this is why the paper's Sec. 3 starts from the TD model —\n"
      "an accelerated-self-healing technique is only *designable* under a\n"
      "physics whose recovery responds to voltage and temperature knobs.\n");
}

/// Ablation F, chip-to-chip statistics of aging and recovery.  The paper
/// notes "the effects of chip to chip variations on aging are also ignored
/// for now".  The virtual fab makes the study cheap: run the
/// stress+recovery experiment on a population of chips (distinct trap
/// populations, process corners and mismatch) and report the spread of the
/// metrics the paper quotes as single numbers.  `logs` are the
/// `tb::variation_population()` sample logs in chip order; the CRC-32 of
/// their CSVs is the one `fleet_supervisor_test` pins for the same
/// population sharded across supervised worker processes, so process
/// isolation, checkpoints and resume provably leave the science payload
/// alone.
void ablation_chip_variation(const std::vector<tb::DataLog>& logs) {
  print_banner(
      "Ablation F — chip-to-chip variation of aging and recovery",
      "population statistics behind the paper's single-chip numbers");

  std::ostringstream csv;
  for (const tb::DataLog& log : logs) log.write_csv(csv);
  std::printf("threaded sample logs: crc32 %08x\n\n",
              util::crc32(csv.str()));

  std::vector<double> fresh_mhz;
  std::vector<double> degradation_pct;
  std::vector<double> recovered_pct;
  for (const tb::DataLog& log : logs) {
    const double fresh_hz = log.records().front().frequency_hz.value();
    fresh_mhz.push_back(fresh_hz / 1e6);
    degradation_pct.push_back(
        100.0 * (1.0 - log.frequency_series("AS110DC24").back().value /
                           fresh_hz));
    recovered_pct.push_back(
        100.0 * core::recovered_fraction(log.delay_series("AR110N6"),
                                         fresh_delay_s(log)));
  }

  const auto row = [&](const char* name, std::vector<double> xs) {
    return std::vector<std::string>{
        name,
        fmt_fixed(mean(xs), 2),
        fmt_fixed(stddev(xs), 2),
        fmt_fixed(percentile(xs, 5.0), 2),
        fmt_fixed(percentile(xs, 95.0), 2),
    };
  };
  Table t({"metric (20 chips)", "mean", "sigma", "p5", "p95"});
  t.add_row(row("fresh frequency (MHz)", fresh_mhz));
  t.add_row(row("24 h DC degradation (%)", degradation_pct));
  t.add_row(row("AR110N6 recovered (%)", recovered_pct));
  std::printf("%s\n", t.render().c_str());

  Table s({"observation", "implication"});
  s.add_row({"fresh-frequency spread >> degradation spread",
             "absolute frequency is a bad aging metric"});
  s.add_row({"recovered-fraction spread is small",
             "the paper's Eq. (16) normalization transfers across chips"});
  std::printf("%s\n", s.render().c_str());
}

/// Ablation K's recovery policies, one 200-chip population each.
const std::vector<core::Policy> kPopulationPolicies = {
    core::Policy::kNoRecovery, core::Policy::kPassiveSleep,
    core::Policy::kReactive, core::Policy::kProactive};

/// Ablation K, population-level design margins.  Ref. [15] built the TD
/// model for *statistical* aging prediction; design margins are set for
/// the p99 chip.  `populations` are the kPopulationPolicies results in
/// order; the percentile margins are the number a product team actually
/// signs off on, and the self-healing payoff is largest exactly at the
/// tail.
void ablation_statistical(
    const std::vector<core::PopulationResult>& populations) {
  print_banner(
      "Ablation K — statistical design margins over a 200-chip population",
      "healing compresses the tail, not just the mean");

  Table t({"policy", "p50 (mV)", "p95 (mV)", "p99 (mV)", "worst (mV)",
           "p99 margin saved"});
  const double baseline_p99 = populations.front().p99_v.value();
  for (std::size_t i = 0; i < populations.size(); ++i) {
    const auto& r = populations[i];
    t.add_row({to_string(kPopulationPolicies[i]),
               fmt_fixed(r.p50_v.value() * 1e3, 2),
               fmt_fixed(r.p95_v.value() * 1e3, 2),
               fmt_fixed(r.p99_v.value() * 1e3, 2),
               fmt_fixed(r.worst_v.value() * 1e3, 2),
               fmt_percent(1.0 - r.p99_v.value() / baseline_p99, 0)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: the proactive row is the paper's design-margin-relaxation\n"
      "argument restated at population scale — the guardband a designer\n"
      "must carry for the p99 chip shrinks by the 'p99 margin saved'\n"
      "column when scheduled deep rejuvenation is part of the system\n"
      "contract.  (At these generous 30 h cycles warm passive idle already\n"
      "heals most of the reversible damage — the deep-sleep knobs earn\n"
      "their keep when sleep windows are scarce; see ablations B and H.)\n");
}

constexpr int kFaultSeeds = 10;

/// The fault-tolerance ablation's lab: the chip-5 schedule head (burn-in,
/// AS110DC24, AR110N6) on the 75-stage Table 1 chip 5.
tb::CampaignResult run_chip5_head(const tb::RunnerConfig& config) {
  tb::TestCase tc = tb::campaign_case("AR110N6");  // the chip-5 schedule
  tc.phases.resize(3);
  fpga::FpgaChip chip(tb::paper_chip_config(5, 75));
  return tb::ExperimentRunner(config).run_campaign(chip, tc);
}

/// The fault-tolerance ablation's 2 + 2 x kFaultSeeds runner configs, in
/// print order: the ideal lab, the ideal lab with reseeded instrument
/// noise, then a (tolerant, naive) pair per representative-plan fault seed.
std::vector<tb::RunnerConfig> fault_labs() {
  std::vector<tb::RunnerConfig> labs(2);
  labs[1].seed = derive_seed(labs[1].seed, 1);
  for (int k = 0; k < kFaultSeeds; ++k) {
    tb::FaultPlan plan = tb::FaultPlan::representative();
    plan.seed = derive_seed(plan.seed, static_cast<std::uint64_t>(k));
    labs.push_back(tb::tolerant_runner_config(plan));
    labs.push_back(tb::naive_runner_config(plan));
  }
  return labs;
}

double margin_relaxed(const tb::DataLog& log) {
  return core::design_margin_relaxed(log.delay_series("AR110N6"),
                                     fresh_delay_s(log));
}

std::vector<double> usable_delays(const tb::DataLog& log) {
  std::vector<double> out;
  for (const auto& r : log.records()) {
    if (r.usable()) out.push_back(r.delay_s.value());
  }
  return out;
}

/// Worst fractional per-sample delay error of a lab's trajectory against
/// the ideal lab's, index-aligned.  The margin headline only looks at the
/// endpoints of the recovery series; this is what the rest of the campaign
/// data — everything a recovery-dynamics fit would consume — looks like.
double worst_sample_error(const tb::DataLog& log, const tb::DataLog& ideal) {
  const auto a = usable_delays(log);
  const auto b = usable_delays(ideal);
  const std::size_t n = std::min(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(a[i] / b[i] - 1.0));
  }
  return worst;
}

/// The Table 4 headline under a dirty lab.  `labs` are the `fault_labs()`
/// runs in order: the ideal lab, its reseeded noise floor, then the
/// representative fault plan run with the fault-tolerant campaign runner
/// (retries, robust reading estimator, watchdog + checkpoint rewind) and
/// with a naive runner (single-shot samples, plain mean, no plausibility
/// checks).  A single fault scenario can be lucky for either side, so the
/// pair is swept over kFaultSeeds seeds: the tolerant runner should stay
/// within ~2 % of the ideal margin-relaxed value on every scenario, while
/// the naive runner drifts further on average and in the worst case.
void ablation_faults(const std::vector<tb::CampaignResult>& labs) {
  const std::string headline = paper_text({"table4.best_relaxed"});
  print_banner(
      "Ablation — fault injection vs. fault tolerance (Table 4 headline)",
      "Table 4 headline: " + headline +
          "; the tolerant runner reproduces it at the instrument-noise floor "
          "under a representative dirty lab and keeps the whole recovery "
          "trajectory clean; a naive runner records corrupted samples every "
          "campaign and risks the headline itself");

  const tb::CampaignResult& ideal = labs[0];
  const double m_ideal = margin_relaxed(ideal.log);

  // Noise floor: the same ideal lab with reseeded instrument noise.  Any
  // dirty-lab deviation of this size is indistinguishable from an honest
  // re-run of the campaign.
  const tb::CampaignResult& reseeded_run = labs[1];
  const double noise_floor =
      std::abs(margin_relaxed(reseeded_run.log) - m_ideal);
  const double floor_traj = worst_sample_error(reseeded_run.log, ideal.log);

  Table t({"fault seed", "lab", "margin relaxed", "|delta| vs ideal",
           "worst sample err", "usable", "phase aborts"});
  double sum_tol = 0.0;
  double sum_naive = 0.0;
  double worst_tol = 0.0;
  double worst_naive = 0.0;
  double traj_tol = 0.0;
  double traj_naive = 0.0;
  tb::FaultReport faults_tol;
  tb::FaultReport faults_naive;
  for (int k = 0; k < kFaultSeeds; ++k) {
    const auto& tolerant = labs[static_cast<std::size_t>(2 + 2 * k)];
    const auto& naive = labs[static_cast<std::size_t>(3 + 2 * k)];
    faults_tol.merge(tolerant.faults);
    faults_naive.merge(naive.faults);

    const struct {
      const char* label;
      const tb::CampaignResult* result;
      double* sum;
      double* worst;
      double* traj;
    } rows[] = {{"tolerant", &tolerant, &sum_tol, &worst_tol, &traj_tol},
                {"naive", &naive, &sum_naive, &worst_naive, &traj_naive}};
    for (const auto& row : rows) {
      const double m = margin_relaxed(row.result->log);
      const double delta = std::abs(m - m_ideal);
      const double traj = worst_sample_error(row.result->log, ideal.log);
      *row.sum += delta;
      *row.worst = std::max(*row.worst, delta);
      *row.traj += traj;
      const auto yield = core::campaign_yield(row.result->log);
      t.add_row({strformat("%d", k), row.label, fmt_percent(m, 1),
                 fmt_percent(delta, 2), fmt_percent(traj, 2),
                 fmt_percent(yield.usable_fraction(), 1),
                 strformat("%d", row.result->faults.phase_aborts)});
    }
  }
  std::printf("%s\n", t.render().c_str());

  Table s({"lab", "mean |delta margin|", "worst |delta margin|",
           "mean worst sample err"});
  s.add_row({"reseeded ideal (noise floor)", fmt_percent(noise_floor, 2),
             fmt_percent(noise_floor, 2),
             fmt_percent(floor_traj, 2)});
  s.add_row({"tolerant", fmt_percent(sum_tol / kFaultSeeds, 2),
             fmt_percent(worst_tol, 2),
             fmt_percent(traj_tol / kFaultSeeds, 2)});
  s.add_row({"naive", fmt_percent(sum_naive / kFaultSeeds, 2),
             fmt_percent(worst_naive, 2),
             fmt_percent(traj_naive / kFaultSeeds, 2)});
  std::printf("ideal-lab margin relaxed: %s\n\n%s\n",
              fmt_percent(m_ideal, 1).c_str(), s.render().c_str());

  std::printf("tolerant (all scenarios) %s",
              faults_tol.render().c_str());
  std::printf("naive    (all scenarios) %s",
              faults_naive.render().c_str());

  // Machine-readable end-of-run dump (one line, key=value) for CI diffing.
  obs::Registry registry;
  faults_tol.publish(registry, "tolerant.");
  faults_naive.publish(registry, "naive.");
  std::printf("metrics: %s\n", registry.snapshot().one_line().c_str());
}

/// Queue `fn(item)` for every item on `pool` without waiting; the futures
/// come back in item order.  Each task owns copies of `fn` and its item, so
/// no task touches this thread's state or waits on another task.
template <typename T, typename Fn>
auto submit_each(util::ThreadPool& pool, const std::vector<T>& items, Fn fn) {
  std::vector<std::future<std::invoke_result_t<Fn, const T&>>> futures;
  futures.reserve(items.size());
  for (const T& item : items) {
    futures.push_back(pool.submit([fn, item] { return fn(item); }));
  }
  return futures;
}

/// The task results, in submission order.
template <typename T>
std::vector<T> collect(std::vector<std::future<T>>& futures) {
  std::vector<T> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace

bool print_paper_reproduction() {
  // One flat task list, longest tasks first: the Table 1 chips (chip 5
  // first), the fault-tolerance labs, Ablation F's chips, Ablation K's
  // populations.  Tasks own their inputs and never wait on each other.
  util::ThreadPool pool;
  auto campaign_tasks =
      tb::submit_paper_campaign(pool, tb::RunnerConfig{}, 75);
  auto fault_tasks = submit_each(pool, fault_labs(), &run_chip5_head);
  auto variation_tasks = submit_each(
      pool, tb::variation_population(), [](const fpga::ChipConfig& cc) {
        fpga::FpgaChip chip(cc);
        return tb::ExperimentRunner(tb::RunnerConfig{})
            .run(chip, tb::variation_case(cc.chip_id));
      });
  auto population_tasks =
      submit_each(pool, kPopulationPolicies, [](core::Policy policy) {
        core::PopulationConfig cfg;
        cfg.chips = 200;
        cfg.policy = policy;
        return core::simulate_population(cfg);
      });

  // Every section prints here, in DESIGN.md Sec. 4 order.
  Claims claims;
  fig1(claims);
  const Campaign campaign = collect(campaign_tasks);
  for (const auto section : {fig4, fig5, fig6, fig7, fig8}) {
    section(campaign, claims);
  }
  fig9(claims);
  fig10(claims);
  table2(campaign, claims);
  table3(campaign);
  table4(campaign, claims);
  table5(campaign, claims);
  ablation_policies();
  ablation_alpha_sweep();
  ablation_gnomo(claims);
  ablation_em();
  ablation_circadian();
  ablation_chip_variation(collect(variation_tasks));
  ablation_sensor();
  ablation_workload();
  ablation_abb();
  ablation_pbti();
  ablation_statistical(collect(population_tasks));
  ablation_model_selection(campaign);
  ablation_mc_faults();
  ablation_faults(collect(fault_tasks));
  return print_claims(claims);
}

}  // namespace ash::lab
