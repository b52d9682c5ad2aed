/// bench_ablation_statistical — population-level design margins.
///
/// Ref. [15] built the TD model for *statistical* aging prediction; design
/// margins are set for the p99 chip.  This ablation runs a 200-chip
/// population through each recovery policy and reports the percentile
/// margins — the number a product team actually signs off on.  The
/// self-healing payoff is largest exactly at the tail.

#include <cstdio>

#include "ash/core/statistical.h"
#include "ash/util/table.h"

int main() {
  using namespace ash;
  print_banner(
      "Ablation K — statistical design margins over a 200-chip population",
      "healing compresses the tail, not just the mean");

  Table t({"policy", "p50 (mV)", "p95 (mV)", "p99 (mV)", "worst (mV)",
           "p99 margin saved"});
  double baseline_p99 = 0.0;
  for (const auto policy :
       {core::Policy::kNoRecovery, core::Policy::kPassiveSleep,
        core::Policy::kReactive, core::Policy::kProactive}) {
    core::PopulationConfig cfg;
    cfg.chips = 200;
    cfg.policy = policy;
    const auto r = core::simulate_population(cfg);
    if (policy == core::Policy::kNoRecovery) baseline_p99 = r.p99_v.value();
    t.add_row({to_string(policy), fmt_fixed(r.p50_v.value() * 1e3, 2),
               fmt_fixed(r.p95_v.value() * 1e3, 2), fmt_fixed(r.p99_v.value() * 1e3, 2),
               fmt_fixed(r.worst_v.value() * 1e3, 2),
               fmt_percent(1.0 - r.p99_v.value() / baseline_p99, 0)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf(
      "reading: the proactive row is the paper's design-margin-relaxation\n"
      "argument restated at population scale — the guardband a designer\n"
      "must carry for the p99 chip shrinks by the 'p99 margin saved'\n"
      "column when scheduled deep rejuvenation is part of the system\n"
      "contract.  (At these generous 30 h cycles warm passive idle already\n"
      "heals most of the reversible damage — the deep-sleep knobs earn\n"
      "their keep when sleep windows are scarce; see ablations B and H.)\n");
  return 0;
}
