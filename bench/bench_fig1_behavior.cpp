/// bench_fig1_behavior — reproduces Figure 1 of the paper.
///
/// "Behavioral illustration of stress and recovery": two stress/recovery
/// cycles under *passive* recovery conditions.  Recovery is visibly slower
/// than degradation, each recovery is partial, and the unrecovered residue
/// accumulates — DeltaVth(t1+t2) ends above zero and the second cycle ends
/// above the first.

#include <cstdio>
#include <vector>

#include "ash/bti/trap_ensemble.h"
#include "ash/util/constants.h"
#include "ash/util/series.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
  print_banner(
      "Figure 1 — behavioural stress/recovery cycles (passive recovery)",
      "partial recovery; unrecovered residue accumulates cycle over cycle");

  // Densified trap population for a smooth single-device illustration
  // (identical mean physics; the RO averages ~1000 such devices).
  bti::TdParameters params = bti::default_td_parameters();
  params.delta_vth_mean_v =
      params.delta_vth_mean_v * (params.traps_per_device / 4000.0);
  params.traps_per_device = 4000;
  bti::TrapEnsemble device(params, 1);
  const auto stress = bti::dc_stress(Volts{1.2}, Celsius{110.0});
  const auto rest = bti::recovery(Volts{0.0}, Celsius{20.0});

  Series trace("dvth");
  std::vector<double> cycle_end_mv;
  double t = 0.0;
  const double step = hours(0.25);
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (double s = 0.0; s < hours(8.0); s += step) {
      device.evolve(stress, Seconds{step});
      t += step;
      trace.append(t, device.delta_vth() * 1e3);
    }
    const double peak = device.delta_vth() * 1e3;
    for (double s = 0.0; s < hours(8.0); s += step) {
      device.evolve(rest, Seconds{step});
      t += step;
      trace.append(t, device.delta_vth() * 1e3);
    }
    cycle_end_mv.push_back(device.delta_vth() * 1e3);
    std::printf("cycle %d: peak DeltaVth = %.2f mV, after recovery = %.2f mV "
                "(residue %.0f%%)\n",
                cycle + 1, peak, cycle_end_mv.back(),
                100.0 * cycle_end_mv.back() / peak);
  }

  Table s({"property", "paper", "measured"});
  s.add_row({"DeltaVth(t1+t2) > 0 (partial recovery)", "yes",
             cycle_end_mv[0] > 0.05 ? "yes" : "NO"});
  s.add_row({"cycle 2 residue > cycle 1 residue (accumulation)", "yes",
             cycle_end_mv[1] > cycle_end_mv[0] ? "yes" : "NO"});
  std::printf("%s\n", s.render().c_str());

  std::vector<double> vals;
  const Series resampled = trace.resampled(64);
  for (const auto& p : resampled.samples()) {
    vals.push_back(std::max(0.0, p.value));
  }
  std::printf("%s\n",
              ascii_chart({"DeltaVth (mV), 8h stress / 8h passive recovery x2"},
                          {vals})
                  .c_str());
  return 0;
}
