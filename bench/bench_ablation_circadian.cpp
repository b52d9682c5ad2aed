/// bench_ablation_circadian — the paper's future-work "virtual circadian
/// rhythm": which periodic deep-rejuvenation schedule should a system run?
///
/// Sweeps cycle period x alpha under a fixed mission profile and prints
/// the full grid plus the availability-vs-worst-aging Pareto frontier —
/// the design menu the paper's cross-layer-optimization paragraph asks for.

#include <cstdio>

#include "ash/core/circadian.h"
#include "ash/util/constants.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
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
  return 0;
}
