/// recovery_policy_explorer — interactive what-if tool for rejuvenation
/// planning.
///
/// Given a stress exposure and a recovery target, asks the planner for the
/// cheapest sleep conditions under three cost regimes (balanced, heat is
/// expensive, negative rail is expensive), then races the four lifetime
/// policies at the chosen margin — the workflow a designer would follow to
/// size sleep schedules with this library.
///
/// Usage:
///   ./build/examples/recovery_policy_explorer [target_fraction] [max_sleep_h]
/// defaults: 0.9 recovered, 6 h budget.  A malformed argument prints the
/// usage and exits 2.

#include <cstdio>
#include <optional>

#include "ash/core/lifetime.h"
#include "ash/core/planner.h"
#include "ash/util/constants.h"
#include "ash/util/double_codec.h"
#include "ash/util/table.h"

namespace {

void show_plan(const char* regime, const ash::core::PlannerConfig& cfg) {
  using namespace ash;
  const auto plan = core::plan_recovery(cfg);
  if (!plan.feasible) {
    std::printf("  %-22s : no feasible plan within the budget\n", regime);
    return;
  }
  std::printf(
      "  %-22s : sleep %5.2f h at %5.1f degC, %+.2f V  (achieves %.1f%%, "
      "cost %.0f)\n",
      regime, to_hours(plan.sleep_s.value()), plan.temp_c.value(), plan.voltage_v.value(),
      plan.achieved_fraction * 100.0, plan.cost);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ash;
  const std::optional<double> target_arg =
      argc > 1 ? parse_double(argv[1]) : 0.9;
  const std::optional<double> max_sleep_arg =
      argc > 2 ? parse_double(argv[2]) : 6.0;
  if (argc > 3 || !target_arg || !max_sleep_arg) {
    std::fprintf(stderr,
                 "usage: recovery_policy_explorer [target_fraction] "
                 "[max_sleep_h]\n");
    return 2;
  }
  const double target = *target_arg;
  const double max_sleep_h = *max_sleep_arg;

  std::printf("goal: recover %.0f%% of a 24 h reference stress within %.1f h\n\n",
              target * 100.0, max_sleep_h);

  core::PlannerConfig base;
  base.target_recovered_fraction = target;
  base.max_sleep_s = Seconds{hours(max_sleep_h)};

  std::printf("cheapest sleep conditions by cost regime:\n");
  show_plan("balanced costs", base);

  core::PlannerConfig heat_pricey = base;
  heat_pricey.heat_cost_per_c = 1.0;
  show_plan("heating is expensive", heat_pricey);

  core::PlannerConfig bias_pricey = base;
  bias_pricey.bias_cost_per_v = 500.0;
  show_plan("neg. rail is expensive", bias_pricey);

  std::printf("\nlifetime policies at a 9.5 mV margin (5-year mission):\n");
  Table t({"policy", "lifetime (days)", "availability", "mean aging (mV)"});
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
               r.margin_exceeded ? fmt_fixed(r.time_to_margin_s.value() / 86400.0, 0)
                                 : ">" + horizon_days,
               fmt_percent(r.availability, 1), fmt_fixed(mean_mv, 2)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
