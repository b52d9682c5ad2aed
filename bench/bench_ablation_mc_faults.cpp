/// bench_ablation_mc_faults — the Fig. 10 study on a failing fleet.
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

#include <cstdio>

#include "ash/mc/reliability.h"
#include "ash/mc/system.h"
#include "ash/obs/metrics.h"
#include "ash/util/table.h"

namespace {

constexpr double kYearS = 365.25 * 86400.0;
constexpr double kDayS = 86400.0;
constexpr int kSeeds = 8;

struct Tally {
  double ttm_days_sum = 0.0;
  int censored = 0;
  int deaths = 0;
  double deficit_core_days_sum = 0.0;
  long lost_intervals = 0;
  int accounted = 0;
};

ash::mc::SystemConfig study_config() {
  ash::mc::SystemConfig cfg;
  cfg.horizon_s = ash::Seconds{2.0 * kYearS};
  // 8 mV rather than the ideal-study 9 mV: dead cores are dark silicon,
  // the fleet runs cooler, and even all-active survivors stay under 9 mV.
  cfg.margin_delta_vth_v = ash::Volts{8e-3};
  return cfg;
}

}  // namespace

int main() {
  using namespace ash;
  print_banner(
      "Ablation — multi-core self-healing under core faults",
      "seed-swept core deaths, stuck rails and sensor corruption; the "
      "reliability manager turns faults into accounted degradation");

  const auto cfg = study_config();
  mc::ReliabilityConfig rel;
  rel.margin_delta_vth_v = cfg.margin_delta_vth_v;

  enum { kManagedCircadian, kManagedAllActive, kRawCircadian, kVariants };
  const char* labels[kVariants] = {"reliability(circadian)",
                                   "reliability(all-active)",
                                   "circadian (unmanaged)"};
  Tally tally[kVariants];
  mc::ReliabilityReport merged[kVariants];
  int circadian_outlives = 0;

  for (int trial = 0; trial < kSeeds; ++trial) {
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
    t.add_row({labels[v], fmt_fixed(y.ttm_days_sum / kSeeds, 0),
               strformat("%d/%d", y.censored, kSeeds),
               strformat("%d", y.deaths),
               fmt_fixed(y.deficit_core_days_sum / kSeeds, 1),
               strformat("%ld", y.lost_intervals),
               strformat("%d/%d", y.accounted, kSeeds)});
  }
  std::printf("%s\n", t.render().c_str());

  Table s({"check", "expected", "measured"});
  s.add_row({"managed circadian outlives managed all-active",
             "every fault seed",
             strformat("%d/%d seeds", circadian_outlives, kSeeds)});
  s.add_row({"manager accounts for every injected fault", "8/8 runs",
             strformat("%d+%d/%d", tally[kManagedCircadian].accounted,
                       tally[kManagedAllActive].accounted, 2 * kSeeds)});
  s.add_row(
      {"unmanaged fleet loses work to dead cores", "deficit >> managed",
       strformat("%.1f vs %.1f core-days",
                 tally[kRawCircadian].deficit_core_days_sum / kSeeds,
                 tally[kManagedCircadian].deficit_core_days_sum / kSeeds)});
  std::printf("%s\n", s.render().c_str());

  // Machine-readable end-of-run dump (one line, key=value) for CI diffing.
  obs::Registry registry;
  const char* prefixes[kVariants] = {"managed_circadian.",
                                     "managed_all_active.", "raw_circadian."};
  for (int v = 0; v < kVariants; ++v) {
    merged[v].publish(registry, prefixes[v]);
  }
  std::printf("metrics: %s\n", registry.snapshot().one_line().c_str());
  return 0;
}
