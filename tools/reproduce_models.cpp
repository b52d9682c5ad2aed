/// The `ash_lab reproduce` sections that run their model inline on the
/// printing thread: Figs. 1, 9 and 10 and Ablations A-E, G-J and M.  Each
/// is a closed-form or small simulation study that takes well under a
/// second; the sections built on pool work live in tools/reproduce.cpp.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/bti/electromigration.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/core/abb.h"
#include "ash/core/circadian.h"
#include "ash/core/gnomo.h"
#include "ash/core/lifetime.h"
#include "ash/core/planner.h"
#include "ash/fpga/chip.h"
#include "ash/fpga/odometer.h"
#include "ash/mc/reliability.h"
#include "ash/mc/system.h"
#include "ash/obs/metrics.h"
#include "ash/util/constants.h"
#include "ash/util/random.h"
#include "ash/util/stats.h"
#include "ash/util/table.h"
#include "reproduce.h"

namespace ash::lab {
namespace {

/// A single 160-trap device has visible seed-to-seed spread (the RO
/// averages ~1000 devices); Figs. 1 and 9 densify the population to 4000
/// traps for a smooth illustration at identical mean physics.
bti::TdParameters dense_device_parameters() {
  bti::TdParameters params = bti::default_td_parameters();
  params.delta_vth_mean_v =
      params.delta_vth_mean_v * (params.traps_per_device / 4000.0);
  params.traps_per_device = 4000;
  return params;
}

constexpr double kYearS = 365.25 * 86400.0;
constexpr double kDayS = 86400.0;
constexpr int kMcSeeds = 8;

/// Ablation M's per-policy tallies over the fault seeds.
struct Tally {
  double ttm_days_sum = 0.0;
  int censored = 0;
  int deaths = 0;
  double deficit_core_days_sum = 0.0;
  long lost_intervals = 0;
  int accounted = 0;
};

mc::SystemConfig core_fault_study_config() {
  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{2.0 * kYearS};
  // 8 mV rather than the ideal-study 9 mV: dead cores are dark silicon,
  // the fleet runs cooler, and even all-active survivors stay under 9 mV.
  cfg.margin_delta_vth_v = Volts{8e-3};
  return cfg;
}

}  // namespace

/// Figure 1, "Behavioral illustration of stress and recovery": two
/// stress/recovery cycles under *passive* recovery conditions.  Recovery is
/// visibly slower than degradation, each recovery is partial, and the
/// unrecovered residue accumulates — DeltaVth(t1+t2) ends above zero and
/// the second cycle ends above the first.
void fig1(Claims& claims) {
  print_banner(
      "Figure 1 — behavioural stress/recovery cycles (passive recovery)",
      "partial recovery; unrecovered residue accumulates cycle over cycle");

  bti::TrapEnsemble device(dense_device_parameters(), 1);
  const auto stress = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  const auto rest = bti::recovery(Volts{0.0}, Celsius{20.0});

  Series trace("dvth");
  std::vector<double> cycle_end_mv;
  double t = 0.0;
  const double step = hours(0.25);
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (double s = 0.0; s < hours(8.0); s += step) {
      device.evolve(stress, Seconds{step});
      t += step;
      trace.append(t, device.delta_vth() * 1e3);
    }
    const double peak = device.delta_vth() * 1e3;
    for (double s = 0.0; s < hours(8.0); s += step) {
      device.evolve(rest, Seconds{step});
      t += step;
      trace.append(t, device.delta_vth() * 1e3);
    }
    cycle_end_mv.push_back(device.delta_vth() * 1e3);
    std::printf("cycle %d: peak DeltaVth = %.2f mV, after recovery = %.2f mV "
                "(residue %.0f%%)\n",
                cycle + 1, peak, cycle_end_mv.back(),
                100.0 * cycle_end_mv.back() / peak);
  }

  claims["fig1.residue"] = cycle_end_mv[0];
  claims["fig1.accumulation"] = cycle_end_mv[1] - cycle_end_mv[0];

  std::vector<double> vals = chart_row(trace, 64);
  for (double& v : vals) v = std::max(0.0, v);
  std::printf("%s\n",
              ascii_chart({"DeltaVth (mV), 8h stress / 8h passive recovery x2"},
                          {vals})
                  .c_str());
}

/// Figure 9, "Illustration of wearout vs accelerated recovery": repeated
/// cycles of 24 h accelerated DC stress followed by 6 h of deep
/// rejuvenation (110 degC, -0.3 V, alpha = 4).  Each cycle's recovery
/// returns the chip near its fresh point; the slowly-growing floor is the
/// irreversible component.
void fig9(Claims& claims) {
  print_banner(
      "Figure 9 — cyclic wearout + accelerated recovery (alpha = 4)",
      "deep rejuvenation each cycle; only the irreversible floor accretes");

  bti::TrapEnsemble device(dense_device_parameters(), 9);
  const auto stress = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  const auto heal = bti::recovery(Volts{-0.3}, Celsius{110.0});

  Series trace("dvth_mv");
  Table t({"cycle", "peak DeltaVth (mV)", "post-recovery (mV)",
           "recovered", "permanent floor (mV)"});
  double now = 0.0;
  const double step = hours(0.5);
  double least_recovered = 1.0;
  double post = 0.0;
  for (int cycle = 1; cycle <= 4; ++cycle) {
    for (double s = 0.0; s < hours(24.0); s += step) {
      device.evolve(stress, Seconds{step});
      now += step;
      trace.append(now, device.delta_vth() * 1e3);
    }
    const double peak = device.delta_vth() * 1e3;
    for (double s = 0.0; s < hours(6.0); s += step) {
      device.evolve(heal, Seconds{step});
      now += step;
      trace.append(now, device.delta_vth() * 1e3);
    }
    post = device.delta_vth() * 1e3;
    least_recovered = std::min(least_recovered, 1.0 - post / peak);
    t.add_row({strformat("%d", cycle), fmt_fixed(peak, 2), fmt_fixed(post, 2),
               fmt_percent(1.0 - post / peak, 0),
               fmt_fixed(device.permanent_delta_vth() * 1e3, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  claims["fig9.every_cycle"] = least_recovered;
  // The residue is the permanent floor plus the slowest-emitting tail of
  // the reversible spectrum — same order of magnitude, both << peak.
  claims["fig9.floor"] = post / (device.permanent_delta_vth() * 1e3);

  std::printf("%s\n",
              ascii_chart({"DeltaVth (mV), 4x (24h stress + 6h deep heal)"},
                          {chart_row(trace, 120)})
                  .c_str());
}

/// Figure 10 and the Sec. 6.2 study, "Illustration of multi-core system
/// self-healing": an 8-core + L3 floorplan where sleeping cores are heated
/// by their active neighbours.
/// The section compares four scheduling policies over a 2-year horizon and
/// reports the observables the paper argues about: the sleeping-core
/// temperature (heater effect), mean/worst aging, TDP behaviour and
/// time-to-margin lifetime.
void fig10(Claims& claims) {
  print_banner(
      "Figure 10 — multi-core self-healing with on-chip heaters",
      "active neighbours heat sleeping cores; circadian scheduling extends "
      "lifetime and respects TDP");

  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{2.0 * 365.25 * 86400.0};
  cfg.margin_delta_vth_v = Volts{9e-3};

  mc::AllActiveScheduler all_active;
  mc::RoundRobinSleepScheduler rr_passive(/*rejuvenate=*/false);
  mc::RoundRobinSleepScheduler rr_active(/*rejuvenate=*/true);
  mc::HeaterAwareCircadianScheduler circadian;
  mc::Scheduler* schedulers[] = {&all_active, &rr_passive, &rr_active,
                                 &circadian};

  Table t({"policy", "sleep temp (degC)", "mean aging (mV)",
           "worst aging (mV)", "TDP violations", "time-to-margin (days)",
           "throughput (core-y)"});
  double baseline_ttm = 0.0;
  for (auto* s : schedulers) {
    const auto r = simulate_system(cfg, *s);
    if (s == &all_active) baseline_ttm = r.time_to_first_margin_s.value();
    if (s == &circadian) {
      claims["fig10.sleep_heating"] = r.mean_sleep_temp_c.value();
      // A lower bound when censored: the fleet never reached its margin.
      claims["fig10.lifetime"] =
          r.time_to_first_margin_s.value() / baseline_ttm;
    }
    const std::string horizon_days =
        fmt_fixed(cfg.horizon_s.value() / 86400.0, 0);
    t.add_row({r.scheduler,
               std::isnan(r.mean_sleep_temp_c.value())
                   ? std::string("-")
                   : fmt_fixed(r.mean_sleep_temp_c.value(), 1),
               fmt_fixed(r.mean_end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(r.worst_end_delta_vth_v.value() * 1e3, 2),
               strformat("%d", r.tdp_violations),
               r.margin_exceeded
                   ? fmt_fixed(r.time_to_first_margin_s.value() / 86400.0, 0)
                   : ">" + horizon_days + " (censored)",
               fmt_fixed(r.throughput_core_s.value() / (365.25 * 86400.0), 1)});
  }
  std::printf("%s\n", t.render().c_str());
}

/// Ablation A, Sec. 2.2's proactive-vs-reactive argument.
///
/// Races the four single-device recovery policies over a 5-year mission and
/// reports lifetime, availability, average aging and recovery-event counts
/// — quantifying the paper's qualitative claims: passive sleep barely
/// helps; reactive recovery works but operates more aged and trips at
/// unpredictable times; proactive recovery keeps the device refreshed.
void ablation_policies() {
  print_banner(
      "Ablation A — recovery scheduling policies (Sec. 2.2)",
      "proactive > reactive > passive > none on aging; reactive runs aged");

  Table t({"policy", "lifetime (days)", "availability", "recovery events",
           "mean aging (mV)", "worst aging (mV)", "permanent (mV)"});
  for (const auto policy :
       {core::Policy::kNoRecovery, core::Policy::kPassiveSleep,
        core::Policy::kReactive, core::Policy::kProactive}) {
    core::LifetimeConfig cfg;
    cfg.policy = policy;
    cfg.horizon_s = Seconds{5.0 * 365.25 * 86400.0};
    cfg.margin_delta_vth_v = Volts{9.5e-3};
    const auto r = simulate_lifetime(cfg);
    double mean_mv = 0.0;
    for (const auto& s : r.trace.samples()) mean_mv += s.value;
    mean_mv = mean_mv / static_cast<double>(r.trace.size()) * 1e3;
    const std::string horizon_days =
        fmt_fixed(cfg.horizon_s.value() / 86400.0, 0);
    t.add_row({to_string(policy),
               r.margin_exceeded
                   ? fmt_fixed(r.time_to_margin_s.value() / 86400.0, 0)
                   : ">" + horizon_days,
               fmt_percent(r.availability, 1),
               strformat("%d", r.recovery_events), fmt_fixed(mean_mv, 2),
               fmt_fixed(r.worst_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(r.end_permanent_v.value() * 1e3, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: proactive and reactive both survive the horizon, but the\n"
      "reactive device spends its life near the high-water mark (higher\n"
      "mean aging => worse expected performance/power, the paper's point),\n"
      "while passive sleep gives up availability for little healing.\n");
}

/// Ablation B, knob sensitivity of Eq. (12).
///
/// Eq. (12) parameterizes the cyclic delay shift by alpha (active/sleep
/// ratio), the sleep voltage and the sleep temperature.  This section sweeps
/// each knob with the other two fixed and reports the 6-h recovered
/// fraction of a 24 h reference stress plus the rejuvenation planner's
/// cheapest feasible plan — the quantitative version of "by tuning alpha
/// properly, both components can decrease".
void ablation_alpha_sweep() {
  print_banner(
      "Ablation B — alpha / voltage / temperature knob sweeps (Eq. (12))",
      "recovery deepens with sleep share, negative bias and temperature");

  const bti::ClosedFormModel model(
      bti::ClosedFormParameters::from_td(bti::default_td_parameters()));
  const double t1 = hours(24.0);

  std::printf("--- alpha sweep (sleep = 24 h / alpha @ 110 degC, -0.3 V) ---\n");
  Table a({"alpha", "sleep (h)", "recovered fraction"});
  for (double alpha : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double t2 = t1 / alpha;
    const double rec =
        1.0 - model.remaining_fraction(Seconds{t1}, Seconds{t2}, bti::recovery(Volts{-0.3}, Celsius{110.0}));
    a.add_row({fmt_fixed(alpha, 0), fmt_fixed(to_hours(t2), 1),
               fmt_percent(rec, 1)});
  }
  std::printf("%s\n", a.render().c_str());

  std::printf("--- voltage sweep (6 h sleep @ 20 degC) ---\n");
  Table v({"sleep voltage (V)", "recovered fraction"});
  for (double volt : {0.0, -0.1, -0.2, -0.3, -0.4}) {
    const double rec = 1.0 - model.remaining_fraction(
                                 Seconds{t1}, Seconds{hours(6.0)}, bti::recovery(Volts{volt}, Celsius{20.0}));
    v.add_row({fmt_fixed(volt, 1), fmt_percent(rec, 1)});
  }
  std::printf("%s\n", v.render().c_str());

  std::printf("--- temperature sweep (6 h sleep @ 0 V) ---\n");
  Table temp({"sleep temp (degC)", "recovered fraction"});
  for (double t_c : {20.0, 45.0, 65.0, 85.0, 100.0, 110.0}) {
    const double rec = 1.0 - model.remaining_fraction(
                                 Seconds{t1}, Seconds{hours(6.0)}, bti::recovery(Volts{0.0}, Celsius{t_c}));
    temp.add_row({fmt_fixed(t_c, 0), fmt_percent(rec, 1)});
  }
  std::printf("%s\n", temp.render().c_str());

  std::printf("--- rejuvenation planner: cheapest plan per target ---\n");
  Table p({"target recovered", "feasible", "voltage (V)", "temp (degC)",
           "sleep (h)", "cost (rel)"});
  for (double target : {0.5, 0.7, 0.85, 0.9, 0.95}) {
    core::PlannerConfig cfg;
    cfg.target_recovered_fraction = target;
    const auto plan = core::plan_recovery(cfg);
    p.add_row({fmt_percent(target, 0), plan.feasible ? "yes" : "no",
               plan.feasible ? fmt_fixed(plan.voltage_v.value(), 2) : "-",
               plan.feasible ? fmt_fixed(plan.temp_c.value(), 0) : "-",
               plan.feasible ? fmt_fixed(to_hours(plan.sleep_s.value()), 2) : "-",
               plan.feasible ? strformat("%.0f", plan.cost) : "-"});
  }
  std::printf("%s\n", p.render().c_str());
}

/// Ablation C, the ref. [12] comparison.
///
/// GNOMO (greater-than-nominal Vdd) is the during-operation mitigation the
/// paper positions itself against: same work, boosted supply, passive idle
/// afterward.  This section races always-on nominal, GNOMO and nominal +
/// accelerated self-healing sleep over 2 years and reports end aging and
/// energy — the paper's claim being that active recovery heals deeper
/// without GNOMO's quadratic energy overhead.
void ablation_gnomo(Claims& claims) {
  print_banner(
      "Ablation C — GNOMO (ref. [12]) vs accelerated self-healing",
      "self-healing out-heals GNOMO at nominal work energy");

  core::GnomoConfig cfg;
  const auto study = core::run_gnomo_study(cfg);

  Table t({"strategy", "end aging (mV)", "permanent (mV)", "energy ratio",
           "stress duty"});
  const auto row = [&](const char* name, const core::StrategyOutcome& o) {
    t.add_row({name, fmt_fixed(o.end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(o.permanent_v.value() * 1e3, 2), fmt_fixed(o.energy_ratio, 2),
               fmt_percent(o.stress_duty, 0)});
  };
  row("always-on nominal", study.nominal);
  row("GNOMO (boost + idle)", study.gnomo);
  row("self-healing sleep", study.self_healing);
  std::printf("%s\n", t.render().c_str());

  claims["ablationC.gnomo_vs_nominal"] =
      study.gnomo.end_delta_vth_v / study.nominal.end_delta_vth_v;
  claims["ablationC.gnomo_energy"] = study.gnomo.energy_ratio - 1.0;
  claims["ablationC.healing_vs_gnomo"] =
      study.self_healing.end_delta_vth_v / study.gnomo.end_delta_vth_v;

  std::printf("--- boost-voltage sensitivity ---\n");
  Table b({"boost Vdd (V)", "speedup", "GNOMO aging (mV)", "energy ratio"});
  for (double boost : {1.26, 1.32, 1.38, 1.44}) {
    core::GnomoConfig c2;
    c2.boost_v = Volts{boost};
    const auto s2 = core::run_gnomo_study(c2);
    b.add_row({fmt_fixed(boost, 2), fmt_fixed(core::gnomo_speedup(c2), 3),
               fmt_fixed(s2.gnomo.end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(s2.gnomo.energy_ratio, 2)});
  }
  std::printf("%s\n", b.render().c_str());
}

/// Ablation D, combined BTI + EM aging under the recovery policies.
///
/// The paper flags electromigration as a limitation of its first-order
/// model.  This ablation closes the loop: does hot rejuvenation (110 degC
/// sleeps) burn interconnect life?  EM is current-driven, so power-gated
/// sleep carries no current: the answer — quantified below — is that sleep
/// schedules *extend* EM life through duty reduction, and system lifetime
/// becomes min(BTI-limited, EM-limited).
void ablation_em() {
  print_banner(
      "Ablation D — electromigration under self-healing schedules",
      "hot sleep is EM-free (no current); duty reduction extends EM life");

  constexpr double kYear = 365.25 * 86400.0;
  const double horizon = 5.0 * kYear;
  const double cycle = hours(30.0);
  const double mission_temp_c = 80.0;
  const double bti_margin_v = 9.5e-3;

  struct Policy {
    const char* name;
    double alpha;      // active/sleep ratio; <=0 means always-on
    double sleep_temp_c;
    double sleep_v;
  };
  const Policy policies[] = {
      {"always-on", -1.0, 0.0, 0.0},
      {"passive sleep (45C, 0V)", 4.0, 45.0, 0.0},
      {"deep rejuvenation (110C, -0.3V)", 4.0, 110.0, -0.3},
      {"deep rejuvenation, alpha=2", 2.0, 110.0, -0.3},
  };

  Table t({"policy", "BTI end (mV)", "BTI margin hit", "EM drift",
           "EM life (y)", "system lifetime"});
  for (const auto& p : policies) {
    bti::ClosedFormAger bti_ager(
        bti::ClosedFormParameters::from_td(bti::default_td_parameters()));
    bti::EmInterconnect em{bti::EmParameters{}};

    const auto active = bti::ac_stress(Volts{1.2}, Celsius{mission_temp_c});
    const auto sleep = bti::recovery(Volts{p.sleep_v}, Celsius{p.sleep_temp_c});
    const double active_span =
        p.alpha > 0.0 ? cycle * p.alpha / (1.0 + p.alpha) : cycle;
    const double sleep_span = cycle - active_span;

    double bti_hit_s = -1.0;
    double em_hit_s = -1.0;
    for (double t_now = 0.0; t_now < horizon; t_now += cycle) {
      bti_ager.evolve(active, Seconds{active_span});
      em.evolve(1.0, Kelvin{celsius(mission_temp_c)}, Seconds{active_span});
      if (bti_hit_s < 0.0 && bti_ager.delta_vth() >= bti_margin_v) {
        bti_hit_s = t_now + active_span;
      }
      if (em_hit_s < 0.0 && em.failed()) em_hit_s = t_now + active_span;
      if (p.alpha > 0.0) {
        bti_ager.evolve(sleep, Seconds{sleep_span});
        // Power-gated: zero current through the interconnect, whatever the
        // rejuvenation temperature.
        em.evolve(0.0, Kelvin{celsius(p.sleep_temp_c)}, Seconds{sleep_span});
      }
    }

    const double em_life_y =
        em.time_to_failure(p.alpha > 0.0 ? p.alpha / (1.0 + p.alpha) : 1.0,
                             Kelvin{celsius(mission_temp_c)}).value() /
        kYear;
    const std::string horizon_years = fmt_fixed(horizon / kYear, 0);
    const auto fmt_hit = [&](double hit) {
      return hit < 0.0 ? ">" + horizon_years + " y"
                       : fmt_fixed(hit / kYear, 1) + " y";
    };
    const double system_hit =
        bti_hit_s < 0.0 ? (em_hit_s < 0.0 ? -1.0 : em_hit_s)
                        : (em_hit_s < 0.0 ? bti_hit_s
                                          : std::min(bti_hit_s, em_hit_s));
    t.add_row({p.name, fmt_fixed(bti_ager.delta_vth() * 1e3, 2),
               fmt_hit(bti_hit_s), fmt_percent(em.drift(), 1),
               fmt_fixed(em_life_y + horizon / kYear, 0), fmt_hit(system_hit)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: the always-on arm is BTI-limited long before EM matters;\n"
      "deep rejuvenation removes the BTI limit AND slows EM by the duty\n"
      "factor — the paper's optimism about ignoring EM is justified for\n"
      "power-gated sleep (it would not be for clock-gated 'sleep' that\n"
      "keeps current flowing).\n");
}

/// Ablation E, the paper's future-work "virtual circadian rhythm": which
/// periodic deep-rejuvenation schedule should a system run?
///
/// Sweeps cycle period x alpha under a fixed mission profile and prints
/// the full grid plus the availability-vs-worst-aging Pareto frontier —
/// the design menu the paper's cross-layer-optimization paragraph asks for.
void ablation_circadian() {
  print_banner(
      "Ablation E — virtual circadian rhythm: schedule design space",
      "short cycles bound the worst case; alpha trades margin for uptime");

  core::CircadianSweepConfig cfg;
  const auto points = core::explore_circadian(cfg);

  Table t({"period (h)", "alpha", "availability", "worst dVth (mV)",
           "mean dVth (mV)", "permanent (mV)"});
  for (const auto& p : points) {
    t.add_row({fmt_fixed(to_hours(p.cycle_period_s.value()), 0),
               fmt_fixed(p.alpha, 0),
               fmt_percent(p.availability, 1),
               fmt_fixed(p.worst_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(p.mean_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(p.end_permanent_v.value() * 1e3, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("--- availability vs worst-aging Pareto frontier ---\n");
  Table f({"period (h)", "alpha", "availability", "worst dVth (mV)"});
  for (const auto& p : core::pareto_schedules(points)) {
    f.add_row({fmt_fixed(to_hours(p.cycle_period_s.value()), 0),
               fmt_fixed(p.alpha, 0),
               fmt_percent(p.availability, 1),
               fmt_fixed(p.worst_delta_vth_v.value() * 1e3, 2)});
  }
  std::printf("%s\n", f.render().c_str());
  std::printf(
      "reading: every frontier point is a defensible design; the knee is\n"
      "typically a daily cycle at alpha ~ 4 — the paper's demonstrated\n"
      "operating point.\n");
}

/// Ablation G, silicon-odometer accuracy.
///
/// Reactive recovery (Sec. 2.2) "needs to track changing threshold
/// voltages"; this ablation quantifies how well the on-chip differential
/// sensor (refs. [7][8]) does that across stress levels, and what its
/// residual error means for reactive trigger thresholds.
void ablation_sensor() {
  print_banner(
      "Ablation G — silicon-odometer tracking accuracy",
      "the sensor reactive recovery would rely on: bias and noise budget");

  const double room = celsius(20.0);

  std::printf("--- tracking across stress exposure ---\n");
  Table t({"stress (h @110C DC)", "true degradation", "sensor estimate",
           "error (pp)"});
  fpga::SiliconOdometer odo{fpga::OdometerConfig{}};
  double elapsed = 0.0;
  for (double target_h : {1.0, 3.0, 6.0, 12.0, 24.0, 48.0}) {
    odo.mission(bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(target_h) - elapsed});
    elapsed = hours(target_h);
    const double truth = odo.true_degradation(Kelvin{room});
    const auto r = odo.read(Kelvin{room});
    t.add_row({fmt_fixed(target_h, 0), fmt_percent(truth, 2),
               fmt_percent(r.degradation_estimate, 2),
               fmt_fixed((r.degradation_estimate - truth) * 100.0, 3)});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("--- read-noise statistics (fixed aging state) ---\n");
  std::vector<double> reads;
  for (int i = 0; i < 400; ++i) {
    reads.push_back(odo.read(Kelvin{room}).degradation_estimate * 100.0);
  }
  Table n({"statistic", "value"});
  n.add_row({"mean estimate (%)", fmt_fixed(mean(reads), 3)});
  n.add_row({"sigma (pp)", fmt_fixed(stddev(reads), 3)});
  n.add_row({"p99 - p1 spread (pp)",
             fmt_fixed(percentile(reads, 99.0) - percentile(reads, 1.0), 3)});
  std::printf("%s\n", n.render().c_str());

  std::printf("--- sensor tracks recovery too ---\n");
  Table h({"phase", "sensor estimate"});
  h.add_row({"after 48 h stress", fmt_percent(reads.back() / 100.0, 2)});
  odo.sleep(bti::recovery(Volts{-0.3}, Celsius{110.0}), Seconds{hours(12.0)});
  h.add_row({"after 12 h deep rejuvenation",
             fmt_percent(odo.read(Kelvin{room}).degradation_estimate, 2)});
  std::printf("%s\n", h.render().c_str());

  std::printf(
      "reading: sensor sigma of a few hundredths of a point means reactive\n"
      "thresholds can be set within ~0.1%% of margin without false triggers\n"
      "— tracking itself is not the obstacle; the paper's argument against\n"
      "reactive recovery is its schedule unpredictability, not sensing.\n");
}

/// Ablation H, demand-aligned circadian self-healing.
///
/// Real workloads have their own circadian rhythm; the sleep a
/// rejuvenation schedule needs is often already there at night.  This
/// ablation runs the 8-core system against a day/night demand curve and
/// compares schedulers: with a diurnal workload, deep rejuvenation costs
/// *zero* peak throughput — the system heals in the demand valleys.
void ablation_workload() {
  print_banner(
      "Ablation H — demand-aligned circadian rejuvenation",
      "night-time demand valleys provide the sleep budget for free");

  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{1.0 * 365.25 * 86400.0};
  cfg.margin_delta_vth_v = Volts{9e-3};
  // Hourly scheduling: resolves the day/night edges of the demand curve.
  cfg.interval_s = Seconds{3600.0};

  const mc::DiurnalWorkload diurnal(/*day=*/8, /*night=*/3);
  const mc::ConstantWorkload peak(8);
  const mc::ConstantWorkload reserved(6);  // statically reserving 2 cores

  struct Arm {
    const char* name;
    const mc::Workload* workload;
  };
  const Arm arms[] = {
      {"peak demand, no sleep possible", &peak},
      {"static 6-of-8 reservation", &reserved},
      {"diurnal demand (8 day / 3 night)", &diurnal},
  };

  Table t({"demand model", "mean active cores", "sleep share",
           "sleep T (degC)", "mean aging (mV)", "worst aging (mV)"});
  for (const auto& arm : arms) {
    mc::HeaterAwareCircadianScheduler scheduler;
    const auto r = simulate_system(cfg, scheduler, *arm.workload);
    t.add_row({arm.name,
               fmt_fixed(r.throughput_core_s / cfg.horizon_s, 2),
               fmt_percent(r.sleep_share, 1),
               std::isnan(r.mean_sleep_temp_c.value())
                   ? std::string("-")
                   : fmt_fixed(r.mean_sleep_temp_c.value(), 1),
               fmt_fixed(r.mean_end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(r.worst_end_delta_vth_v.value() * 1e3, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: the diurnal arm serves every demanded core-hour (peak\n"
      "included) yet ages like the reservation arm — the rejuvenation\n"
      "budget rides the workload's own rhythm, the paper's closing vision\n"
      "of a 'virtual circadian rhythm' grounded in demand data.\n");
}

/// Ablation I, "adaptation is no panacea" (Sec. 1), quantified.
///
/// Races the accept/track/adapt school (adaptive body bias, refs. [9]-[11])
/// against no mitigation and accelerated self-healing over a 5-year
/// mission.  ABB holds timing perfectly while its bias range lasts — but
/// every compensated millivolt multiplies subthreshold leakage, and the
/// device underneath keeps aging.  Self-healing removes the drift itself.
void ablation_abb() {
  print_banner(
      "Ablation I — adaptive body bias (refs [9]-[11]) vs self-healing",
      "ABB keeps timing but burns leakage and runs out of range");

  core::AbbConfig cfg;
  const auto study = core::run_abb_study(cfg);

  Table t({"arm", "device drift (mV)", "timing residual (mV)",
           "mean leakage", "availability", "bias state"});
  const auto row = [&](const char* name, const core::AbbArm& a,
                       const char* bias) {
    t.add_row({name, fmt_fixed(a.end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(a.end_residual_vth_v.value() * 1e3, 2),
               fmt_fixed(a.mean_leakage_ratio, 2) + "x",
               fmt_percent(a.availability, 0), bias});
  };
  row("no mitigation", study.none, "-");
  row("adaptive body bias", study.abb,
      study.abb.bias_exhausted
          ? "EXHAUSTED"
          : strformat("%.0f mV used", study.abb.end_body_bias_v * 1e3)
                .c_str());
  row("accelerated self-healing", study.self_healing, "-");
  std::printf("%s\n", t.render().c_str());

  std::printf("--- bias-range sensitivity ---\n");
  Table b({"max body bias (mV)", "exhausted?", "timing residual (mV)",
           "mean leakage"});
  for (double range_mv : {10.0, 20.0, 40.0, 80.0, 450.0}) {
    core::AbbConfig c2;
    c2.max_body_bias_v = Volts{range_mv * 1e-3};
    const auto s2 = core::run_abb_study(c2);
    b.add_row({fmt_fixed(range_mv, 0),
               s2.abb.bias_exhausted ? "yes" : "no",
               fmt_fixed(s2.abb.end_residual_vth_v.value() * 1e3, 2),
               fmt_fixed(s2.abb.mean_leakage_ratio, 2) + "x"});
  }
  std::printf("%s\n", b.render().c_str());
  std::printf(
      "reading: the paper's argument in numbers — with scaling, the drift\n"
      "to compensate grows while bias headroom shrinks; the adapted system\n"
      "'will function correctly but with poor power' (mean leakage row),\n"
      "whereas self-healing keeps the device near-fresh for a 20%% duty\n"
      "cost that a circadian schedule can hide in demand valleys.\n");
}

/// Ablation J, technology sensitivity: NBTI/PBTI asymmetry.
///
/// The paper's Sec. 1 notes PBTI "has been negligible in previous
/// technologies" (SiON gates) but "is rapidly becoming an important
/// reliability issue with the introduction of high-k and metal gates".
/// The virtual fabric makes the sweep trivial: scale PBTI (NMOS) aging
/// relative to NBTI and watch the measured DC/AC degradation move —
/// pass-transistor LUT fabrics are NMOS-rich, so their wearout is
/// PBTI-dominated at high-k-era ratios.
void ablation_pbti() {
  print_banner(
      "Ablation J — NBTI/PBTI asymmetry across technology generations",
      "PT-LUT fabrics are NMOS-rich: wearout tracks the PBTI share");

  Table t({"PBTI/NBTI ratio", "technology analogue", "DC 24 h (%)",
           "AC 24 h (%)", "AC/DC"});
  const double room = celsius(20.0);
  struct Row {
    double ratio;
    const char* analogue;
  };
  for (const auto& r :
       {Row{0.1, "SiON, PBTI negligible"}, Row{0.3, "late SiON"},
        Row{0.6, "early high-k"}, Row{1.0, "40 nm calibration (paper)"},
        Row{1.5, "PBTI-dominant stack"}}) {
    fpga::ChipConfig cc;
    cc.seed = 21;
    cc.ro_stages = 25;
    cc.pbti_amplitude_ratio = r.ratio;
    fpga::FpgaChip dc_chip(cc);
    fpga::FpgaChip ac_chip(cc);
    const double f_dc = dc_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
    const double f_ac = ac_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
    dc_chip.evolve(fpga::RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}),
                   Seconds{hours(24.0)});
    ac_chip.evolve(fpga::RoMode::kAcOscillating, bti::ac_stress(Volts{1.2}, Celsius{110.0}),
                   Seconds{hours(24.0)});
    const double deg_dc = 1.0 - dc_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value() / f_dc;
    const double deg_ac = 1.0 - ac_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value() / f_ac;
    t.add_row({fmt_fixed(r.ratio, 1), r.analogue, fmt_fixed(deg_dc * 100, 2),
               fmt_fixed(deg_ac * 100, 2), fmt_fixed(deg_ac / deg_dc, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: had the paper's parts been SiON-era (ratio ~0.1-0.3), the\n"
      "same 24 h stress would have shown well under 1%% degradation — the\n"
      "accelerated-recovery story matters *because* high-k brought PBTI\n"
      "into play on exactly the NMOS-rich structures FPGAs are made of.\n");
}

/// Ablation M, the Fig. 10 study on a failing fleet.
///
/// The paper's multi-core argument assumes every core survives the
/// mission.  This ablation reruns the study under the representative
/// core-fault plan (permanent deaths, stuck rejuvenation rails, noisy and
/// dropping aging sensors) across a sweep of fault seeds, comparing:
///
///   * the heater-aware circadian policy wrapped in the reliability
///     manager (quarantine, failover, telemetry filtering);
///   * the all-active baseline behind the same manager;
///   * the circadian policy raw, with no reliability layer.
///
/// Claims measured: self-healing keeps extending lifetime when cores die
/// mid-mission (managed circadian outlives managed all-active on healthy
/// time-to-first-margin), and the manager converts faults into accounted
/// degradation instead of silently lost work.
void ablation_mc_faults() {
  print_banner(
      "Ablation — multi-core self-healing under core faults",
      "seed-swept core deaths, stuck rails and sensor corruption; the "
      "reliability manager turns faults into accounted degradation");

  const auto cfg = core_fault_study_config();
  mc::ReliabilityConfig rel;
  rel.margin_delta_vth_v = cfg.margin_delta_vth_v;

  enum { kManagedCircadian, kManagedAllActive, kRawCircadian, kVariants };
  const char* labels[kVariants] = {"reliability(circadian)",
                                   "reliability(all-active)",
                                   "circadian (unmanaged)"};
  Tally tally[kVariants];
  mc::ReliabilityReport merged[kVariants];
  int circadian_outlives = 0;

  for (int trial = 0; trial < kMcSeeds; ++trial) {
    auto plan = mc::CoreFaultPlan::representative();
    plan.seed = derive_seed(plan.seed, static_cast<std::uint64_t>(trial));

    double ttm[kVariants] = {};
    for (int v = 0; v < kVariants; ++v) {
      mc::HeaterAwareCircadianScheduler circadian;
      mc::AllActiveScheduler all_active;
      mc::Scheduler* inner =
          v == kManagedAllActive ? static_cast<mc::Scheduler*>(&all_active)
                                 : static_cast<mc::Scheduler*>(&circadian);
      mc::ReliabilityReport report;
      mc::ReliabilityManager managed(*inner, rel, &report);
      mc::Scheduler* policy = v == kRawCircadian
                                  ? inner
                                  : static_cast<mc::Scheduler*>(&managed);
      const auto r = simulate_system(cfg, *policy, plan, &report);
      auto& t = tally[v];
      ttm[v] = r.time_to_first_margin_s.value();
      t.ttm_days_sum += r.time_to_first_margin_s.value() / kDayS;
      t.censored += r.margin_exceeded ? 0 : 1;
      t.deaths += report.permanent_deaths;
      t.deficit_core_days_sum += r.demand_deficit_core_s.value() / kDayS;
      t.lost_intervals += report.core_intervals_lost;
      t.accounted += report.accounted() ? 1 : 0;
      merged[v].merge(report);
    }
    if (ttm[kManagedCircadian] > ttm[kManagedAllActive]) ++circadian_outlives;
  }

  Table t({"policy", "healthy TTM (days, mean)", "censored",
           "core deaths", "deficit (core-days, mean)",
           "lost core-intervals", "report accounted"});
  for (int v = 0; v < kVariants; ++v) {
    const auto& y = tally[v];
    t.add_row({labels[v], fmt_fixed(y.ttm_days_sum / kMcSeeds, 0),
               strformat("%d/%d", y.censored, kMcSeeds),
               strformat("%d", y.deaths),
               fmt_fixed(y.deficit_core_days_sum / kMcSeeds, 1),
               strformat("%ld", y.lost_intervals),
               strformat("%d/%d", y.accounted, kMcSeeds)});
  }
  std::printf("%s\n", t.render().c_str());

  Table s({"check", "expected", "measured"});
  s.add_row({"managed circadian outlives managed all-active",
             "every fault seed",
             strformat("%d/%d seeds", circadian_outlives, kMcSeeds)});
  s.add_row({"manager accounts for every injected fault", "8/8 runs",
             strformat("%d+%d/%d", tally[kManagedCircadian].accounted,
                       tally[kManagedAllActive].accounted, 2 * kMcSeeds)});
  s.add_row(
      {"unmanaged fleet loses work to dead cores", "deficit >> managed",
       strformat("%.1f vs %.1f core-days",
                 tally[kRawCircadian].deficit_core_days_sum / kMcSeeds,
                 tally[kManagedCircadian].deficit_core_days_sum / kMcSeeds)});
  std::printf("%s\n", s.render().c_str());

  // Machine-readable end-of-run dump (one line, key=value) for CI diffing.
  obs::Registry registry;
  const char* prefixes[kVariants] = {"managed_circadian.",
                                     "managed_all_active.", "raw_circadian."};
  for (int v = 0; v < kVariants; ++v) {
    merged[v].publish(registry, prefixes[v]);
  }
  std::printf("metrics: %s\n", registry.snapshot().one_line().c_str());
}

}  // namespace ash::lab
