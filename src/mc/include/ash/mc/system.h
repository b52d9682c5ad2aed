#pragma once

/// \file system.h
/// The multi-core self-healing system simulator (Fig. 10 study).
///
/// Per scheduling interval: the policy assigns core modes; the thermal
/// model turns the resulting power map into a temperature field; every
/// core's BTI state advances under its own (voltage, temperature, duty)
/// condition.  Sleeping cores bordered by active neighbours therefore
/// recover at elevated temperature *for free* — the "on-chip heater"
/// effect the paper proposes.

#include <memory>
#include <string>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/mc/fault.h"
#include "ash/mc/scheduler.h"
#include "ash/mc/thermal.h"
#include "ash/mc/workload.h"
#include "ash/util/series.h"

namespace ash::mc {

/// System/study configuration.
struct SystemConfig {
  int columns = 4;  ///< 2 x columns cores (Fig. 10 uses 4)
  ThermalConfig thermal;
  /// Electrical power per node by mode (watts).
  double active_power_w = 12.0;
  double sleep_power_w = 0.5;
  double cache_power_w = 3.0;
  /// Negative rail used by rejuvenating sleep.
  Volts rejuvenation_bias_v{-0.3};
  /// Mission operating point of active cores.
  Volts mission_supply_v{1.2};
  double activity_duty = 0.5;
  /// Workload demand: active cores required every interval.
  int cores_needed = 6;
  /// Scheduling interval and study horizon.
  Seconds interval_s{6.0 * 3600.0};
  Seconds horizon_s{3.0 * 365.25 * 86400.0};
  /// Aging budget per core (DeltaVth).
  Volts margin_delta_vth_v{12e-3};
  /// Thermal design power cap (watts); violations are counted.
  double tdp_w = 90.0;
  /// Points in the recorded worst-core trace.
  int trace_points = 200;
  /// Device model.
  bti::ClosedFormParameters model =
      bti::ClosedFormParameters::from_td(bti::default_td_parameters());
};

/// Study outcome for one scheduler.
struct SystemResult {
  std::string scheduler;
  /// Core-seconds of work *delivered* (an active assignment on a dead or
  /// transient-faulted core delivers nothing).
  Seconds throughput_core_s{0.0};
  /// Core-seconds of demand the fleet could not deliver: workload demand
  /// beyond the core count, starved assignments, and (under faults) work
  /// dispatched to cores that failed to do it.  The system records the
  /// shortfall instead of aborting the study.
  Seconds demand_deficit_core_s{0.0};
  /// First time any *alive* core's aging crossed the margin
  /// (right-censored at horizon + interval when never).
  Seconds time_to_first_margin_s{0.0};
  bool margin_exceeded = false;
  /// Per-core end-state aging.
  std::vector<Volts> end_delta_vth_v;
  /// Per-core permanent (unrecoverable) end-state aging — the fairness
  /// observable: rotation should spread irreversible wear evenly.
  std::vector<Volts> end_permanent_v;
  Volts worst_end_delta_vth_v{0.0};
  Volts mean_end_delta_vth_v{0.0};
  /// Time-average temperature of *sleeping* cores — the heater
  /// effect's direct observable.  NaN when no core ever slept.
  Celsius mean_sleep_temp_c{0.0};
  /// Hottest node temperature seen.
  Celsius max_temp_c{0.0};
  /// Fraction of core-intervals spent sleeping.
  double sleep_share = 0.0;
  /// Number of intervals whose total power exceeded the TDP.
  int tdp_violations = 0;
  /// Worst-core DeltaVth over time.
  Series worst_trace;
};

/// Run one scheduler over the horizon with constant demand
/// (config.cores_needed every interval).
SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler);

/// Run one scheduler against a time-varying workload.  Demand is clamped
/// to [0, core_count] per interval (the overhang is recorded as deficit);
/// config.cores_needed is ignored.
SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const Workload& workload);

/// Fault-aware study: the scheduler sees *measured* odometer telemetry
/// (noisy/stuck/NaN per the plan) plus heartbeat and rail status, cores
/// die and glitch per the plan, and the run never aborts — lost work and
/// unmet demand are accounted instead.  Wrap the scheduler in a
/// `ReliabilityManager` sharing the same `report` to get quarantine,
/// failover and repair; pass a raw scheduler to measure how an unmanaged
/// policy degrades.  `report` (optional) receives injected-fault counts
/// and mission outcomes; margin bookkeeping covers the alive fleet.
SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const Workload& workload,
                             const CoreFaultPlan& plan,
                             ReliabilityReport* report = nullptr);

/// Fault-aware study with constant demand (config.cores_needed).
SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const CoreFaultPlan& plan,
                             ReliabilityReport* report = nullptr);

}  // namespace ash::mc
