/// bench_ablation_abb — "adaptation is no panacea" (Sec. 1), quantified.
///
/// Races the accept/track/adapt school (adaptive body bias, refs. [9]-[11])
/// against no mitigation and accelerated self-healing over a 5-year
/// mission.  ABB holds timing perfectly while its bias range lasts — but
/// every compensated millivolt multiplies subthreshold leakage, and the
/// device underneath keeps aging.  Self-healing removes the drift itself.

#include <cstdio>

#include "ash/core/abb.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
  print_banner(
      "Ablation I — adaptive body bias (refs [9]-[11]) vs self-healing",
      "ABB keeps timing but burns leakage and runs out of range");

  core::AbbConfig cfg;
  const auto study = core::run_abb_study(cfg);

  Table t({"arm", "device drift (mV)", "timing residual (mV)",
           "mean leakage", "availability", "bias state"});
  const auto row = [&](const char* name, const core::AbbArm& a,
                       const char* bias) {
    t.add_row({name, fmt_fixed(a.end_delta_vth_v.value() * 1e3, 2),
               fmt_fixed(a.end_residual_vth_v.value() * 1e3, 2),
               fmt_fixed(a.mean_leakage_ratio, 2) + "x",
               fmt_percent(a.availability, 0), bias});
  };
  row("no mitigation", study.none, "-");
  row("adaptive body bias", study.abb,
      study.abb.bias_exhausted
          ? "EXHAUSTED"
          : strformat("%.0f mV used", study.abb.end_body_bias_v * 1e3)
                .c_str());
  row("accelerated self-healing", study.self_healing, "-");
  std::printf("%s\n", t.render().c_str());

  std::printf("--- bias-range sensitivity ---\n");
  Table b({"max body bias (mV)", "exhausted?", "timing residual (mV)",
           "mean leakage"});
  for (double range_mv : {10.0, 20.0, 40.0, 80.0, 450.0}) {
    core::AbbConfig c2;
    c2.max_body_bias_v = Volts{range_mv * 1e-3};
    const auto s2 = core::run_abb_study(c2);
    b.add_row({fmt_fixed(range_mv, 0),
               s2.abb.bias_exhausted ? "yes" : "no",
               fmt_fixed(s2.abb.end_residual_vth_v.value() * 1e3, 2),
               fmt_fixed(s2.abb.mean_leakage_ratio, 2) + "x"});
  }
  std::printf("%s\n", b.render().c_str());
  std::printf(
      "reading: the paper's argument in numbers — with scaling, the drift\n"
      "to compensate grows while bias headroom shrinks; the adapted system\n"
      "'will function correctly but with poor power' (mean leakage row),\n"
      "whereas self-healing keeps the device near-fresh for a 20%% duty\n"
      "cost that a circadian schedule can hide in demand valleys.\n");
  return 0;
}
