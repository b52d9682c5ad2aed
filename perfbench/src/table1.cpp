/// table1_campaign — the paper's Table 1 campaign, serial, then the
/// Table 2-5 headline numbers derived from its logs.
///
/// The campaign is the paper's: five chips with 75-stage ROs, chip seeds
/// 0x40A0 + id, the default runner.  `--seed` therefore does not change
/// the inputs; the logs are pinned by CRC and chip 5 against the golden
/// trajectory of the program's own perf tests.  Chips run one after the
/// other in one thread so the number measures the lab, not a scheduler.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/core/metrics.h"
#include "ash/core/model_fit.h"
#include "ash/fpga/chip.h"
#include "ash/obs/profile.h"
#include "ash/tb/data_log.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"
#include "ash/util/crc32.h"
#include "golden_chip5_data.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ash;

constexpr int kStages = 75;
constexpr int kChips = 5;

/// CRC-32 of each chip's DataLog CSV (chips 1..5, seeds 0x40A0 + id).
constexpr std::uint32_t kChipLogCrc[kChips] = {0x93b09eab, 0x47871c0b,
                                               0x4d8627e5, 0x4e317dea,
                                               0xe5931e51};
/// CRC-32 of the derived Table 2-5 headline numbers, printed %.17g.
constexpr std::uint32_t kTablesCrc = 0xb85eb4f3;

const char* const kChipSpan[kChips] = {"tb.chip1", "tb.chip2", "tb.chip3",
                                       "tb.chip4", "tb.chip5"};

struct Lab {
  std::vector<tb::TestCase> cases = tb::paper_campaign();
  std::vector<fpga::FpgaChip> chips;
};

Lab build_lab() {
  Lab lab;
  lab.chips.reserve(lab.cases.size());
  for (const auto& tc : lab.cases) {
    fpga::ChipConfig cc;
    cc.chip_id = tc.chip_id;
    cc.seed = 0x40A0 + static_cast<std::uint64_t>(tc.chip_id);
    cc.ro_stages = kStages;
    lab.chips.emplace_back(cc);
  }
  return lab;
}

/// The headline numbers of Tables 2-5, the way the table benches derive
/// them, as one "%.17g" line per number.
std::string derive_tables(const std::vector<tb::DataLog>& logs) {
  const auto fresh_delay = [&](int chip) {
    return logs[static_cast<std::size_t>(chip - 1)].records().front().delay_s.value();
  };
  const auto fresh_freq = [&](int chip) {
    return logs[static_cast<std::size_t>(chip - 1)]
        .records()
        .front()
        .frequency_hz.value();
  };
  const auto log_of = [&](int chip) -> const tb::DataLog& {
    return logs[static_cast<std::size_t>(chip - 1)];
  };
  std::string out;
  const auto emit = [&](const char* what, double v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s %.17g\n", what, v);
    out += buf;
  };

  // Table 2: frequency degradation at the end of each 24 h stress.
  const struct {
    int chip;
    const char* phase;
  } stress[] = {{2, "AS110DC24"}, {3, "AS110DC24"}, {5, "AS110DC24"},
                {4, "AS100DC24"}, {1, "AS110AC24"}};
  for (const auto& s : stress) {
    const Series deg = core::frequency_degradation_series(
        log_of(s.chip).frequency_series(s.phase), fresh_freq(s.chip));
    emit(s.phase, deg.back().value);
  }

  // Table 3: stress-law and recovery-law fits.
  const core::ModelFitter fitter;
  for (const auto& s : {stress[0], stress[2], stress[3], stress[4]}) {
    const auto fit = fitter.fit_stress(core::delay_change_series(
        log_of(s.chip).delay_series(s.phase), fresh_delay(s.chip)));
    emit("stress.amplitude_s", fit.amplitude_s.value());
    emit("stress.tau_s", fit.tau_s.value());
  }
  const bti::ClosedFormModel prior(fitter.priors());
  const struct {
    int chip;
    const char* phase;
  } recovery[] = {{2, "R20Z6"}, {3, "AR20N6"}, {4, "AR110Z6"}, {5, "AR110N6"}};
  for (const auto& r : recovery) {
    const Series delay = log_of(r.chip).delay_series(r.phase);
    const double afc =
        r.chip == 4 ? prior.capture_acceleration(Volts{1.2}, Kelvin{celsius(100.0)})
                    : 1.0;
    const auto fit = fitter.fit_recovery(
        core::delay_change_series(delay, fresh_delay(r.chip)),
        hours(24.0) * afc);
    emit("recovery.acceleration", fit.acceleration);
    emit("recovery.permanent_ratio", fit.permanent_ratio);
    // Table 4: recovered fraction and design-margin-relaxed parameter.
    emit("recovered_fraction",
         core::recovered_fraction(delay, fresh_delay(r.chip)));
    emit("margin_relaxed",
         core::design_margin_relaxed(delay, fresh_delay(r.chip)));
  }

  // Table 5: the same alpha in both chip-5 rounds.
  const double fresh2 = log_of(5).delay_series("AS110DC48").front().value;
  emit("round2.margin_relaxed",
       core::design_margin_relaxed(log_of(5).delay_series("AR110N12"), fresh2));
  return out;
}

/// Unit kinds: chip c's campaign is kind c, the tables derivation after
/// all chips is kind kChips.  Each is repeated once per round.
constexpr int kTablesUnit = kChips;

void check_round(const std::vector<tb::DataLog>& logs, const std::string& tables,
                 Checks& checks) {
  const auto pinned = [&](const std::string& bytes, std::uint32_t crc,
                          const std::string& what) {
    const std::uint32_t got = util::crc32(bytes);
    char text[64];
    std::snprintf(text, sizeof text, " crc %08x, pinned %08x", got, crc);
    checks.expect(got == crc, what + text);
  };
  for (int c = 0; c < kChips; ++c) {
    pinned(log_csv(logs[static_cast<std::size_t>(c)]), kChipLogCrc[c],
           "chip" + std::to_string(c + 1) + " log");
  }
  checks.expect(chip5_matches_golden(logs[4]),
                "chip5 logged delays differ from the golden trajectory");
  pinned(tables, kTablesCrc, "tables");
}

/// `rounds` campaigns, each on a freshly built lab.  Every lab build is a
/// set-up sample; further builds, thrown away, are spread between chip
/// runs until there are `setups` samples, so that no single stretch of
/// host contention decides setup_s.
struct Rounds {
  UnitTimes units;
  std::vector<double> setup_s;
};

Rounds run_rounds(int rounds, int setups, Tracer* tracer, Checks& checks) {
  Rounds out;
  const auto build = [&] {
    const ScopedSpan span(tracer, "fpga.chip_build");
    const std::int64_t t0 = now_ns();
    Lab lab = build_lab();
    out.setup_s.push_back(seconds_since(t0));
    return lab;
  };
  const int slots = rounds * kChips;
  const int extras = std::max(0, setups - rounds);
  tb::ExperimentRunner runner{tb::RunnerConfig{}};
  for (int r = 0; r < rounds; ++r) {
    Lab lab = build();
    std::vector<tb::DataLog> logs;
    for (int c = 0; c < kChips; ++c) {
      const std::size_t i = static_cast<std::size_t>(c);
      const std::int64_t t0 = now_ns();
      const double cpu0 = process_cpu_s();
      {
        const ScopedSpan span(tracer, kChipSpan[c]);
        logs.push_back(runner.run(lab.chips[i], lab.cases[i]));
      }
      out.units.add(c, seconds_since(t0), process_cpu_s() - cpu0);
      const int slot = r * kChips + c;
      if ((slot + 1) * extras / slots > slot * extras / slots) (void)build();
    }
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    std::string tables;
    {
      const ScopedSpan span(tracer, "core.tables");
      tables = derive_tables(logs);
    }
    out.units.add(kTablesUnit, seconds_since(t0), process_cpu_s() - cpu0);
    checks.attempt(kChips + 1);
    check_round(logs, tables, checks);
  }
  return out;
}

}  // namespace

std::string log_csv(const tb::DataLog& log) {
  std::ostringstream os;
  log.write_csv(os);
  return os.str();
}

bool chip5_matches_golden(const tb::DataLog& log) {
  const auto& golden = golden::kChip5LogDelayBits;
  const std::size_t n = sizeof golden / sizeof golden[0];
  if (log.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    double expected = 0.0;
    std::memcpy(&expected, &golden[i], sizeof expected);
    if (ulp_distance(expected, log.records()[i].delay_s.value()) > 1) {
      return false;
    }
  }
  return true;
}

Result run_table1_campaign(const RunConfig& config) {
  Result result;
  // A campaign is 4-9 s of work on a 4-core x86 VM; every chip counts at
  // its fastest over the rounds, so the rounds are at least four.
  const int rounds = std::max(4, config.seconds / 4);

  if (!config.trace) {
    const Rounds run = run_rounds(rounds, kSetupRepeats, nullptr, result.checks);
    result.add("setup_s", percentile(run.setup_s, 50.0), "s");
    result.add("wall_s", run.units.wall_s(), "s");
    result.add("cpu_s", run.units.cpu_s(), "s");
    result.add("peak_rss_mb", process_peak_rss_mb(), "MB");
    result.note("campaigns", rounds, "count");
    result.note("setup.samples", static_cast<double>(run.setup_s.size()), "count");
    return result;
  }

  const Rounds untraced = run_rounds(rounds, 0, nullptr, result.checks);
  Tracer tracer;
  obs::reset_profile();
  obs::enable_profiling(true);
  const Rounds traced = run_rounds(rounds, kSetupRepeats, &tracer, result.checks);
  obs::enable_profiling(false);

  for (int c = 0; c < kChips; ++c) {
    char name[32];
    std::snprintf(name, sizeof name, "tb.chip%d_s", c + 1);
    result.add(name, percentile(tracer.self_ns_of(kChipSpan[c]), 50.0) * 1e-9, "s");
  }
  const auto kernel = [&](obs::Kernel k, const std::string& prefix) {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    for (const auto& p : obs::profile_snapshot()) {
      if (p.kernel == k) {
        calls = p.calls;
        total_ns = p.total_ns;
      }
    }
    result.add(prefix + ".calls", static_cast<double>(calls) / rounds, "count");
    result.add(prefix + ".ns_per_call",
               calls ? static_cast<double>(total_ns) / static_cast<double>(calls) : 0.0,
               "ns");
  };
  kernel(obs::Kernel::kTbPhaseAttempt, "tb.phase_attempt");
  kernel(obs::Kernel::kTrapEnsembleEvolve, "bti.trap_evolve");
  kernel(obs::Kernel::kRoDelayEval, "fpga.ro_delay_eval");
  result.add("core.tables_s",
             percentile(tracer.self_ns_of("core.tables"), 50.0) * 1e-9, "s");
  result.add("fpga.chip_build_s",
             percentile(tracer.self_ns_of("fpga.chip_build"), 50.0) * 1e-9, "s");
  result.add("obs.trace_overhead", traced.units.wall_s() / untraced.units.wall_s(),
             "ratio");
  tracer.write_jsonl(work_dir() + "/trace-table1_campaign-seed" +
                     std::to_string(config.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench
