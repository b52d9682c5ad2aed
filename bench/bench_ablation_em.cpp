/// bench_ablation_em — combined BTI + EM aging under the recovery policies.
///
/// The paper flags electromigration as a limitation of its first-order
/// model.  This ablation closes the loop: does hot rejuvenation (110 degC
/// sleeps) burn interconnect life?  EM is current-driven, so power-gated
/// sleep carries no current: the answer — quantified below — is that sleep
/// schedules *extend* EM life through duty reduction, and system lifetime
/// becomes min(BTI-limited, EM-limited).

#include <cstdio>

#include "ash/bti/closed_form.h"
#include "ash/bti/electromigration.h"
#include "ash/util/constants.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
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
    const auto fmt_hit = [&](double hit) {
      return hit < 0.0 ? ">" + fmt_fixed(horizon / kYear, 0) + " y"
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
  return 0;
}
