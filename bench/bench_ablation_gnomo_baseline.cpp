/// bench_ablation_gnomo_baseline — the ref. [12] comparison.
///
/// GNOMO (greater-than-nominal Vdd) is the during-operation mitigation the
/// paper positions itself against: same work, boosted supply, passive idle
/// afterward.  This bench races always-on nominal, GNOMO and nominal +
/// accelerated self-healing sleep over 2 years and reports end aging and
/// energy — the paper's claim being that active recovery heals deeper
/// without GNOMO's quadratic energy overhead.

#include <cstdio>

#include "ash/core/gnomo.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
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

  Table s({"check", "paper positioning", "measured"});
  s.add_row({"GNOMO reduces aging vs always-on", "yes, with power overhead",
             study.gnomo.end_delta_vth_v < study.nominal.end_delta_vth_v
                 ? "yes"
                 : "NO"});
  s.add_row({"GNOMO pays quadratic energy", "yes",
             strformat("%.0f%% extra",
                       (study.gnomo.energy_ratio - 1.0) * 100.0)});
  s.add_row({"self-healing beats GNOMO on aging", "yes",
             study.self_healing.end_delta_vth_v < study.gnomo.end_delta_vth_v
                 ? "yes"
                 : "NO"});
  std::printf("%s\n", s.render().c_str());

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
  return 0;
}
