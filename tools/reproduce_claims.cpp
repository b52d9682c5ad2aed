/// The claims table of `ash_lab reproduce`: every quantitative paper claim
/// it checks, one row each, with the band its measured value must lie in.
/// EXPERIMENTS.md quotes the Claims section verbatim, and
/// `tools_ash_lab_reproduce` asserts every verdict at 75 stages.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ash/util/table.h"
#include "reproduce.h"

namespace ash::lab {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// How a value and its band print: value * scale, `digits` decimals, suffix.
struct Unit {
  double scale;
  int digits;
  const char* suffix;
};
constexpr Unit kPct{100.0, 1, "%"};
constexpr Unit kPct2{100.0, 2, "%"};
constexpr Unit kPct3{100.0, 3, "%"};
constexpr Unit kPoints{100.0, 1, " pp"};
constexpr Unit kRatio{1.0, 2, ""};
constexpr Unit kTimes{1.0, 1, "x"};
constexpr Unit kR2{1.0, 4, ""};
constexpr Unit kNs{1.0, 2, " ns"};
constexpr Unit kMv{1.0, 2, " mV"};
constexpr Unit kDegC{1.0, 1, " degC"};

/// The EXPERIMENTS.md "Deviations" entries rows point to, by title.
constexpr const char* kSingleKnob = "single-knob sleep recovers < 90% in 6 h";
constexpr const char* kTable5Gap = "Table 5 gap above 2 pp";

/// One paper claim: the measured value must lie strictly inside (lo, hi).
/// A row whose model value misses the paper names the EXPERIMENTS.md
/// deviation that records the miss.
struct Claim {
  const char *id, *source, *paper;
  double lo, hi;
  Unit unit;
  const char* deviation = nullptr;
};

// clang-format off
const Claim kClaims[] = {
  {"fig1.residue", "Fig. 1", "DeltaVth(t1+t2) > 0: recovery is partial", 0.05, kInf, kMv},
  {"fig1.accumulation", "Fig. 1", "residue grows cycle over cycle", 0.0, kInf, kMv},
  {"fig4.ac_over_dc", "Fig. 4", "AC ~ half of DC", 0.35, 0.70, kRatio},
  {"fig4.dc_share_3h", "Fig. 4", "fast start: most DC damage by 3 h", 0.50, 0.85, kPct},
  {"fig5.dc110_delay", "Fig. 5", "~2.2% of Td0 (chip 5, 110 degC)", 0.017, 0.028, kPct2},
  {"fig5.delay_100_over_110", "Fig. 5", "~0.77: delay change, chip 4 / chip 5", 0.65, 0.89, kRatio},
  {"fig5.fit_r2", "Fig. 5", "Eq. (10) model matches measurement", 0.99, kInf, kR2},
  {"fig6.passive_partial", "Fig. 6", "R20Z6 recovers clearly partially", 0.30, 0.70, kPct},
  {"fig6.neg_beats_zero_20C", "Fig. 6", "-0.3 V beats 0 V at 20 degC (6 h)", 0.0, kInf, kPoints},
  {"fig6.neg_beats_zero_110C", "Fig. 6", "-0.3 V beats 0 V at 110 degC (0.3 h)", 0.0, kInf, kNs},
  {"fig7.hot_beats_cold_0V", "Fig. 7", "110 beats 20 degC at 0 V (1 h)", 0.0, kInf, kNs},
  {"fig7.hot_beats_cold_neg", "Fig. 7", "110 beats 20 degC at -0.3 V (1 h)", 0.0, kInf, kNs},
  {"fig8.ordering", "Fig. 8", "hot+neg < hot < neg < passive, every sample", 0.0, kInf, kPoints},
  {"fig9.every_cycle", "Fig. 9", "every cycle recovers ~90%", 0.85, kInf, kPct},
  {"fig9.floor", "Fig. 9", "residue tracks the permanent floor", -kInf, 5.0, kTimes},
  {"fig10.sleep_heating", "Fig. 10", "sleeping cores heated above 45 degC", 55.0, kInf, kDegC},
  {"fig10.lifetime", "Fig. 10", "circadian lifetime: huge benefit", 2.0, kInf, kTimes},
  {"table1.burnin_most", "Table 1", "burn-in barely ages the chips", -0.001, 0.003, kPct3},
  {"table1.burnin_least", "Table 1", "burn-in barely ages the chips", -0.001, 0.003, kPct3},
  {"table2.dc110", "Table 2", "~2.2% (AS110DC24, chip 2)", 0.017, 0.028, kPct2},
  {"table2.dc100", "Table 2", "~1.7% (AS100DC24)", 0.012, 0.022, kPct2},
  {"table2.ac110", "Table 2", "~1.1% (AS110AC24)", 0.008, 0.014, kPct2},
  {"table2.dc100_over_dc110", "Table 2", "~0.77: degradation, chip 4 / chip 2", 0.65, 0.89, kRatio},
  {"table4.recovered_AR110N6", "Table 4", "~90% recovered at alpha = 4", 0.90, kInf, kPct},
  {"table4.recovered_AR20N6", "Table 4", "~90% recovered at alpha = 4", 0.78, kInf, kPct, kSingleKnob},
  {"table4.recovered_AR110Z6", "Table 4", "~90% recovered at alpha = 4", 0.80, kInf, kPct, kSingleKnob},
  {"table4.best_relaxed", "Table 4", "72.4% margin relaxed (AR110N6)", 0.64, 0.82, kPct},
  {"table5.same_relaxed", "Table 5", "same margin relaxed at alpha = 4", -kInf, 0.04, kPoints, kTable5Gap},
  {"ablationC.gnomo_vs_nominal", "Abl. C", "GNOMO ages less than always-on", -kInf, 1.0, kRatio},
  {"ablationC.gnomo_energy", "Abl. C", "GNOMO pays extra energy", 0.0, kInf, kPct},
  {"ablationC.healing_vs_gnomo", "Abl. C", "self-healing ages less than GNOMO", -kInf, 1.0, kRatio},
};
// clang-format on

std::string fmt_unit(double v, const Unit& u) {
  return fmt_fixed(v * u.scale, u.digits) + u.suffix;
}

std::string fmt_band(const Claim& c) {
  // Named edges: g++ 12's -Wrestrict misfires on "lit" + temporary.
  const std::string lo = fmt_unit(c.lo, c.unit);
  const std::string hi = fmt_unit(c.hi, c.unit);
  if (c.hi == kInf) return "> " + lo;
  if (c.lo == -kInf) return "< " + hi;
  return "(" + lo + ", " + hi + ")";
}

}  // namespace

std::string paper_text(std::initializer_list<const char*> ids) {
  std::string out;
  for (const char* id : ids) {
    const Claim* row = std::find_if(
        std::begin(kClaims), std::end(kClaims),
        [&](const Claim& c) { return std::string_view(c.id) == id; });
    if (row == std::end(kClaims)) {
      throw std::out_of_range(std::string("no claim row ") + id);
    }
    if (!out.empty()) out += "; ";
    out += row->paper;
  }
  return out;
}

bool print_claims(const Claims& measured) {
  print_banner(
      "Claims — every paper claim above against its accepted band",
      "each measured value lies inside its band; misses are recorded in "
      "EXPERIMENTS.md");

  Table t({"claim", "source", "paper", "measured", "band", "verdict"});
  t.set_align(1, Align::kLeft);
  t.set_align(2, Align::kLeft);
  t.set_align(5, Align::kLeft);
  bool all_hold = true;
  for (const Claim& c : kClaims) {
    const auto it = measured.find(c.id);
    const double v = it == measured.end() ? std::nan("") : it->second;
    const bool in_band = c.lo < v && v < c.hi;  // false when unmeasured
    all_hold = all_hold && in_band;
    t.add_row({c.id, c.source, c.paper,
               std::isnan(v) ? "-" : fmt_unit(v, c.unit), fmt_band(c),
               !in_band       ? "FAILS"
               : c.deviation ? "deviation (recorded)"
                             : "holds"});
  }
  std::printf("%s\n", t.render().c_str());

  std::printf("recorded deviations (EXPERIMENTS.md, \"Deviations\"):\n");
  for (const Claim& c : kClaims) {
    if (c.deviation != nullptr) std::printf("  %s: %s\n", c.id, c.deviation);
  }
  return all_hold;
}

}  // namespace ash::lab
