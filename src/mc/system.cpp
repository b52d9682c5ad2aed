#include "ash/mc/system.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "ash/obs/profile.h"
#include "ash/obs/trace.h"

namespace ash::mc {

namespace {

void validate(const SystemConfig& c) {
  if (c.cores_needed < 0 || c.cores_needed > 2 * c.columns) {
    throw std::invalid_argument("SystemConfig: cores_needed out of range");
  }
  if (c.interval_s <= Seconds{0.0} || c.horizon_s < c.interval_s) {
    throw std::invalid_argument("SystemConfig: bad interval/horizon");
  }
  if (c.margin_delta_vth_v <= Volts{0.0}) {
    throw std::invalid_argument("SystemConfig: margin must be positive");
  }
  if (c.active_power_w < c.sleep_power_w) {
    throw std::invalid_argument(
        "SystemConfig: active power below sleep power");
  }
  if (c.trace_points < 2) {
    throw std::invalid_argument("SystemConfig: need >= 2 trace points");
  }
}

/// One loop serves both the ideal and the fault-aware studies: with no
/// fault model the telemetry is exact truth and every core lives forever,
/// so the ideal path reproduces the original simulator bit-for-bit.
SystemResult run(const SystemConfig& config, Scheduler& scheduler,
                 const Workload& workload, const CoreFaultPlan* plan,
                 ReliabilityReport* report) {
  validate(config);
  const Floorplan floorplan(config.columns);
  const ThermalModel thermal(floorplan, config.thermal);
  const int cores = floorplan.core_count();

  std::optional<CoreFaultModel> faults;
  if (plan != nullptr) {
    faults.emplace(*plan, cores, config.interval_s, report);
  }

  std::vector<bti::ClosedFormAger> agers(
      static_cast<std::size_t>(cores), bti::ClosedFormAger(config.model));

  SystemResult result;
  result.scheduler = scheduler.name();
  result.worst_trace.set_name(scheduler.name());

  obs::set_sim_now(0.0);
  obs::Span run_span(obs::EventKind::kRun, scheduler.name(), "mc.system");
  run_span.arg("cores", std::to_string(cores));
  run_span.arg("faulted", plan != nullptr ? "yes" : "no");

  const auto intervals =
      static_cast<long>(config.horizon_s / config.interval_s);
  const long trace_every =
      std::max<long>(1, intervals / (config.trace_points - 1));

  double sleep_temp_sum = 0.0;
  long sleep_core_intervals = 0;
  long core_intervals = 0;
  std::vector<double> prev_core_temps;  // empty on the first interval
  std::vector<double> true_vth(static_cast<std::size_t>(cores), 0.0);

  for (long k = 0; k < intervals; ++k) {
    const obs::ScopedTimer interval_timer(
        obs::kernel_histogram(obs::Kernel::kMcInterval));
    const double t_now = static_cast<double>(k) * config.interval_s.value();
    obs::set_sim_now(t_now);
    const int requested = workload.cores_needed(k, Seconds{t_now});

    SchedulerContext ctx;
    {
      const obs::ScopedTimer fault_timer(
          obs::kernel_histogram(obs::Kernel::kMcFaultSample));
      for (int i = 0; i < cores; ++i) {
        true_vth[static_cast<std::size_t>(i)] =
            agers[static_cast<std::size_t>(i)].delta_vth();
      }
      if (faults) faults->begin_interval(k, true_vth);

      ctx.interval_index = static_cast<int>(k);
      ctx.floorplan = &floorplan;
      ctx.set_demand(requested);
      ctx.temp_c.reserve(prev_core_temps.size());
      for (double t : prev_core_temps) ctx.temp_c.push_back(Celsius{t});
      ctx.delta_vth.reserve(static_cast<std::size_t>(cores));
      if (faults) {
        ctx.status.reserve(static_cast<std::size_t>(cores));
        for (int i = 0; i < cores; ++i) {
          ctx.delta_vth.push_back(faults->measured_delta_vth(
              i, Volts{true_vth[static_cast<std::size_t>(i)]}));
          ctx.status.push_back(faults->status(i));
        }
      } else {
        ctx.delta_vth = true_vth;
      }
    }

    Assignment assignment;
    {
      const obs::ScopedTimer sched_timer(
          obs::kernel_histogram(obs::Kernel::kMcSchedDecide));
      assignment = scheduler.assign(ctx);
    }
    if (static_cast<int>(assignment.size()) != cores) {
      throw std::runtime_error("simulate_system: bad assignment size");
    }

    // Power map and temperature field.  Dead cores are dark silicon.
    std::vector<double> powers(static_cast<std::size_t>(cores) + 1,
                               config.cache_power_w);
    double total_power = config.cache_power_w;
    for (int i = 0; i < cores; ++i) {
      double p = assignment[static_cast<std::size_t>(i)] == CoreMode::kActive
                     ? config.active_power_w
                     : config.sleep_power_w;
      if (faults && faults->dead(i)) p = 0.0;
      powers[static_cast<std::size_t>(i)] = p;
      total_power += p;
    }
    if (total_power > config.tdp_w) ++result.tdp_violations;
    std::vector<double> temps;
    {
      const obs::ScopedTimer thermal_timer(
          obs::kernel_histogram(obs::Kernel::kMcThermalSolve));
      temps = thermal.solve_steady_state(powers);
    }
    prev_core_temps.assign(temps.begin(), temps.begin() + cores);

    // Evolve every core under its own condition.
    int delivered = 0;
    for (int i = 0; i < cores; ++i) {
      const double t_c = temps[static_cast<std::size_t>(i)];
      result.max_temp_c = Celsius{std::max(result.max_temp_c.value(), t_c)};
      ++core_intervals;
      if (faults && faults->dead(i)) {
        // Dark: no power, no work, no aging; the state is frozen at death.
        if (assignment[static_cast<std::size_t>(i)] == CoreMode::kActive &&
            report != nullptr) {
          report->core_intervals_lost++;
        }
        continue;
      }
      const CoreMode mode =
          faults ? faults->effective_mode(
                       i, assignment[static_cast<std::size_t>(i)])
                 : assignment[static_cast<std::size_t>(i)];
      bti::OperatingCondition cond;
      switch (mode) {
        case CoreMode::kActive:
          cond = bti::ac_stress(config.mission_supply_v, Celsius{t_c},
                                config.activity_duty);
          // A transient-faulted core is powered and stressed but does no
          // useful work that interval.
          if (faults && faults->transient_faulted(i)) {
            if (report != nullptr) report->core_intervals_lost++;
          } else {
            ++delivered;
            result.throughput_core_s =
                result.throughput_core_s + config.interval_s;
          }
          break;
        case CoreMode::kSleepPassive:
          cond = bti::recovery(Volts{0.0}, Celsius{t_c});
          sleep_temp_sum += t_c;
          ++sleep_core_intervals;
          break;
        case CoreMode::kSleepRejuvenate:
          cond = bti::recovery(config.rejuvenation_bias_v, Celsius{t_c});
          sleep_temp_sum += t_c;
          ++sleep_core_intervals;
          break;
      }
      agers[static_cast<std::size_t>(i)].evolve(cond, config.interval_s);
    }

    // Demand shortfall: whatever of the *requested* demand was not
    // actually delivered this interval (overload, starvation, faults).
    const int deficit = std::max(0, requested - delivered);
    if (deficit > 0) {
      result.demand_deficit_core_s = result.demand_deficit_core_s +
          static_cast<double>(deficit) * config.interval_s;
      if (report != nullptr) report->deficit_core_intervals += deficit;
    }

    // Margin bookkeeping and trace over the alive fleet.
    const obs::ScopedTimer telemetry_timer(
        obs::kernel_histogram(obs::Kernel::kMcTelemetry));
    double worst = 0.0;
    for (int i = 0; i < cores; ++i) {
      if (faults && faults->dead(i)) continue;
      worst = std::max(worst, agers[static_cast<std::size_t>(i)].delta_vth());
    }
    if (!result.margin_exceeded && worst >= config.margin_delta_vth_v.value()) {
      result.margin_exceeded = true;
      result.time_to_first_margin_s =
          static_cast<double>(k + 1) * config.interval_s;  // double * Seconds
    }
    if (k % trace_every == 0 || k + 1 == intervals) {
      result.worst_trace.append(
          static_cast<double>(k + 1) * config.interval_s.value(), worst);
    }
  }
  obs::set_sim_now(static_cast<double>(intervals) * config.interval_s.value());

  if (!result.margin_exceeded) {
    result.time_to_first_margin_s = config.horizon_s + config.interval_s;
  }
  for (const auto& a : agers) {
    result.end_delta_vth_v.push_back(Volts{a.delta_vth()});
    result.end_permanent_v.push_back(Volts{a.permanent_delta_vth()});
  }
  result.worst_end_delta_vth_v =
      *std::max_element(result.end_delta_vth_v.begin(),
                        result.end_delta_vth_v.end());
  double sum = 0.0;
  for (const Volts v : result.end_delta_vth_v) sum += v.value();
  result.mean_end_delta_vth_v = Volts{sum / static_cast<double>(cores)};
  result.mean_sleep_temp_c = Celsius{
      sleep_core_intervals > 0
          ? sleep_temp_sum / static_cast<double>(sleep_core_intervals)
          : std::nan("")};
  result.sleep_share = core_intervals > 0
                           ? static_cast<double>(sleep_core_intervals) /
                                 static_cast<double>(core_intervals)
                           : 0.0;
  if (report != nullptr) {
    report->healthy_margin_exceeded = result.margin_exceeded;
    report->healthy_time_to_first_margin_s = result.time_to_first_margin_s;
  }
  return result;
}

}  // namespace

SystemResult simulate_system(const SystemConfig& config,
                             Scheduler& scheduler) {
  const ConstantWorkload workload(config.cores_needed);
  return run(config, scheduler, workload, nullptr, nullptr);
}

SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const Workload& workload) {
  return run(config, scheduler, workload, nullptr, nullptr);
}

SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const Workload& workload,
                             const CoreFaultPlan& plan,
                             ReliabilityReport* report) {
  return run(config, scheduler, workload, &plan, report);
}

SystemResult simulate_system(const SystemConfig& config, Scheduler& scheduler,
                             const CoreFaultPlan& plan,
                             ReliabilityReport* report) {
  const ConstantWorkload workload(config.cores_needed);
  return run(config, scheduler, workload, &plan, report);
}

}  // namespace ash::mc
