/// bench_ablation_workload — demand-aligned circadian self-healing.
///
/// Real workloads have their own circadian rhythm; the sleep a
/// rejuvenation schedule needs is often already there at night.  This
/// ablation runs the 8-core system against a day/night demand curve and
/// compares schedulers: with a diurnal workload, deep rejuvenation costs
/// *zero* peak throughput — the system heals in the demand valleys.

#include <cmath>
#include <cstdio>

#include "ash/mc/system.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
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
  return 0;
}
