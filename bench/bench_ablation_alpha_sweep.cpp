/// bench_ablation_alpha_sweep — knob-sensitivity ablation for Eq. (12).
///
/// Eq. (12) parameterizes the cyclic delay shift by alpha (active/sleep
/// ratio), the sleep voltage and the sleep temperature.  This bench sweeps
/// each knob with the other two fixed and reports the 6-h recovered
/// fraction of a 24 h reference stress plus the rejuvenation planner's
/// cheapest feasible plan — the quantitative version of "by tuning alpha
/// properly, both components can decrease".

#include <cstdio>

#include "ash/bti/closed_form.h"
#include "ash/core/planner.h"
#include "ash/util/constants.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
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
  return 0;
}
