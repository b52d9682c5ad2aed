/// bench_fig9_cyclic_rejuvenation — reproduces Figure 9 of the paper.
///
/// "Illustration of wearout vs accelerated recovery": repeated cycles of
/// 24 h accelerated DC stress followed by 6 h of deep rejuvenation
/// (110 degC, -0.3 V, alpha = 4).  Each cycle's recovery returns the chip
/// near its fresh point; the slowly-growing floor is the irreversible
/// component.

#include <cstdio>
#include <vector>

#include "ash/bti/trap_ensemble.h"
#include "ash/util/constants.h"
#include "ash/util/series.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
  print_banner(
      "Figure 9 — cyclic wearout + accelerated recovery (alpha = 4)",
      "deep rejuvenation each cycle; only the irreversible floor accretes");

  // A single 160-trap device has visible seed-to-seed spread (the RO
  // averages ~1000 devices); densify the population for a smooth
  // illustration at identical mean physics.
  bti::TdParameters params = bti::default_td_parameters();
  params.delta_vth_mean_v =
      params.delta_vth_mean_v * (params.traps_per_device / 4000.0);
  params.traps_per_device = 4000;
  bti::TrapEnsemble device(params, 9);
  const auto stress = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  const auto heal = bti::recovery(Volts{-0.3}, Celsius{110.0});

  Series trace("dvth_mv");
  Table t({"cycle", "peak DeltaVth (mV)", "post-recovery (mV)",
           "recovered", "permanent floor (mV)"});
  double now = 0.0;
  const double step = hours(0.5);
  std::vector<double> residue;
  for (int cycle = 1; cycle <= 4; ++cycle) {
    for (double s = 0.0; s < hours(24.0); s += step) {
      device.evolve(stress, Seconds{step});
      now += step;
      trace.append(now, device.delta_vth() * 1e3);
    }
    const double peak = device.delta_vth() * 1e3;
    for (double s = 0.0; s < hours(6.0); s += step) {
      device.evolve(heal, Seconds{step});
      now += step;
      trace.append(now, device.delta_vth() * 1e3);
    }
    const double post = device.delta_vth() * 1e3;
    residue.push_back(post);
    t.add_row({strformat("%d", cycle), fmt_fixed(peak, 2), fmt_fixed(post, 2),
               fmt_percent(1.0 - post / peak, 0),
               fmt_fixed(device.permanent_delta_vth() * 1e3, 2)});
  }
  std::printf("%s\n", t.render().c_str());

  Table s({"check", "paper", "measured"});
  s.add_row({"every cycle recovers >= ~90%", "yes (headline)",
             residue.back() < 0.15 * trace.max_value() ? "yes" : "NO"});
  // The residue is the permanent floor plus the slowest-emitting tail of
  // the reversible spectrum — same order of magnitude, both << peak.
  s.add_row(
      {"post-recovery residue tracks the permanent floor", "yes",
       residue.back() < 5.0 * device.permanent_delta_vth() * 1e3 ? "yes"
                                                                 : "NO"});
  std::printf("%s\n", s.render().c_str());

  std::vector<double> vals;
  const Series resampled = trace.resampled(120);
  for (const auto& p : resampled.samples()) vals.push_back(p.value);
  std::printf("%s\n",
              ascii_chart({"DeltaVth (mV), 4x (24h stress + 6h deep heal)"},
                          {vals})
                  .c_str());
  return 0;
}
