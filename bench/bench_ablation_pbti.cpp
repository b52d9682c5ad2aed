/// bench_ablation_pbti — technology sensitivity: NBTI/PBTI asymmetry.
///
/// The paper's Sec. 1 notes PBTI "has been negligible in previous
/// technologies" (SiON gates) but "is rapidly becoming an important
/// reliability issue with the introduction of high-k and metal gates".
/// The virtual fabric makes the sweep trivial: scale PBTI (NMOS) aging
/// relative to NBTI and watch the measured DC/AC degradation move —
/// pass-transistor LUT fabrics are NMOS-rich, so their wearout is
/// PBTI-dominated at high-k-era ratios.

#include <cstdio>

#include "ash/fpga/chip.h"
#include "ash/util/constants.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
  print_banner(
      "Ablation J — NBTI/PBTI asymmetry across technology generations",
      "PT-LUT fabrics are NMOS-rich: wearout tracks the PBTI share");

  Table t({"PBTI/NBTI ratio", "technology analogue", "DC 24 h (%)",
           "AC 24 h (%)", "AC/DC"});
  const double room = celsius(20.0);
  struct Row {
    double ratio;
    const char* analogue;
  };
  for (const auto& r :
       {Row{0.1, "SiON, PBTI negligible"}, Row{0.3, "late SiON"},
        Row{0.6, "early high-k"}, Row{1.0, "40 nm calibration (paper)"},
        Row{1.5, "PBTI-dominant stack"}}) {
    fpga::ChipConfig cc;
    cc.seed = 21;
    cc.ro_stages = 25;
    cc.pbti_amplitude_ratio = r.ratio;
    fpga::FpgaChip dc_chip(cc);
    fpga::FpgaChip ac_chip(cc);
    const double f_dc = dc_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
    const double f_ac = ac_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
    dc_chip.evolve(fpga::RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}),
                   Seconds{hours(24.0)});
    ac_chip.evolve(fpga::RoMode::kAcOscillating, bti::ac_stress(Volts{1.2}, Celsius{110.0}),
                   Seconds{hours(24.0)});
    const double deg_dc = 1.0 - dc_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value() / f_dc;
    const double deg_ac = 1.0 - ac_chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value() / f_ac;
    t.add_row({fmt_fixed(r.ratio, 1), r.analogue, fmt_fixed(deg_dc * 100, 2),
               fmt_fixed(deg_ac * 100, 2), fmt_fixed(deg_ac / deg_dc, 2)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: had the paper's parts been SiON-era (ratio ~0.1-0.3), the\n"
      "same 24 h stress would have shown well under 1%% degradation — the\n"
      "accelerated-recovery story matters *because* high-k brought PBTI\n"
      "into play on exactly the NMOS-rich structures FPGAs are made of.\n");
  return 0;
}
