#pragma once

/// \file planner.h
/// Rejuvenation planner: choose the cheapest sleep conditions (voltage,
/// temperature, duration) that meet a recovery target.
///
/// The paper demonstrates that several knob combinations reach "within
/// 90 % of the original margin" (Table 4) — which immediately raises the
/// engineering question its Sec. 6 gestures at: *which* combination should
/// a system use, given that heating costs power, negative rails cost a
/// charge pump, and sleep time costs availability?  `plan_recovery`
/// answers it with an exhaustive knob-grid search against the closed-form
/// recovery law (monotone in duration, so the minimal sleep per knob point
/// is found by bisection).

#include "ash/bti/closed_form.h"
#include "ash/util/units.h"

namespace ash::core {

/// Planning inputs.
struct PlannerConfig {
  /// Stress exposure to heal, in stress-reference-equivalent time.
  Seconds t1_equiv_s{24.0 * 3600.0};
  /// Required recovered fraction of the reversible+permanent damage.
  double target_recovered_fraction = 0.9;
  /// Longest sleep the schedule tolerates.
  Seconds max_sleep_s{6.0 * 3600.0};
  /// Shortest schedulable sleep: thermal ramp time plus scheduling
  /// granularity.  Without it the log-law physics always picks a
  /// minutes-long max-knob blast, which no real chamber or power domain
  /// can deliver.
  Seconds min_sleep_s{1800.0};

  /// Knob bounds (safety interlocks of Sec. 6.1).
  Volts min_voltage_v{-0.45};
  Volts max_voltage_v{0.0};
  Celsius ambient_c{20.0};
  Celsius max_temp_c{110.0};
  /// Grid resolution per knob.
  int voltage_steps = 10;
  int temp_steps = 10;

  /// Cost model.  Running costs (relative units per second of sleep):
  /// heating above ambient, negative-bias generation, and the opportunity
  /// cost of sleeping at all.
  double heat_cost_per_c = 0.02;
  double bias_cost_per_v = 8.0;
  double time_cost = 1.0;
  /// Fixed per-episode engagement costs: ramping the die/chamber up costs
  /// energy proportional to the temperature lift regardless of how short
  /// the sleep is, and using the negative rail at all means provisioning a
  /// charge pump (Sec. 6.1's implementation-feasibility challenge).
  /// These make interior knob settings competitive with the max-everything
  /// corner.
  double heat_engage_cost_per_c = 2.0;
  double bias_engage_cost = 150.0;

  /// Device model.
  bti::ClosedFormParameters model =
      bti::ClosedFormParameters::from_td(bti::default_td_parameters());
};

/// Planner output.
struct RecoveryPlan {
  bool feasible = false;
  Volts voltage_v{0.0};
  Celsius temp_c{0.0};
  Seconds sleep_s{0.0};
  double cost = 0.0;
  /// Recovered fraction the plan achieves (>= target when feasible).
  double achieved_fraction = 0.0;
};

/// Sleep-cost of a candidate (exposed for tests and the ablations).
double plan_cost(const PlannerConfig& config, Volts voltage, Celsius temp,
                 Seconds sleep);

/// Find the cheapest feasible plan; `feasible == false` if no knob setting
/// within bounds reaches the target inside max_sleep_s.
RecoveryPlan plan_recovery(const PlannerConfig& config);

}  // namespace ash::core
