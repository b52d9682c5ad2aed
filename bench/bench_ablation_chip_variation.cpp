/// bench_ablation_chip_variation — chip-to-chip statistics of aging and
/// recovery.
///
/// The paper notes "the effects of chip to chip variations on aging are
/// also ignored for now".  The virtual fab makes the study cheap: run the
/// stress+recovery experiment on a population of chips (distinct trap
/// populations, process corners and mismatch) and report the spread of the
/// metrics the paper quotes as single numbers.
///
/// The population runs twice — fanned over an in-process thread pool, and
/// sharded across supervised worker processes (`FleetSupervisor`, one
/// forked worker per chip with durable checkpoints) — and the two sample
/// logs are required to agree byte-for-byte.  That pins a determinism
/// contract on a real workload: process isolation, checkpoint round-trips
/// and phase-at-a-time resume must not perturb the science payload by a
/// single bit.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ash/core/metrics.h"
#include "ash/fleet/supervisor.h"
#include "ash/fpga/chip.h"
#include "ash/tb/data_log.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/crc32.h"
#include "ash/util/stats.h"
#include "ash/util/table.h"
#include "ash/util/thread_pool.h"

namespace {

using namespace ash;

constexpr int kChips = 20;

fpga::ChipConfig chip_config(int i) {
  fpga::ChipConfig cc;
  cc.chip_id = i + 1;
  cc.seed = 0x7A0 + static_cast<std::uint64_t>(i);
  cc.ro_stages = 25;  // smaller CUT: more per-chip spread, faster run
  return cc;
}

tb::TestCase variation_case(int chip_id) {
  tb::TestCase tc;
  tc.name = "variation";
  tc.chip_id = chip_id;
  tc.phases = {
      tb::burn_in_phase(),
      tb::dc_stress_phase("AS110DC24", Celsius{110.0}, units::hours(24.0)),
      tb::recovery_phase("AR110N6", Volts{-0.3}, Celsius{110.0},
                         units::hours(6.0))};
  return tc;
}

struct ChipMetrics {
  double fresh_mhz;
  double degradation_pct;
  double recovered_pct;
};

ChipMetrics chip_metrics(const tb::DataLog& log) {
  const double fresh_hz = log.records().front().frequency_hz.value();
  const double fresh_delay = log.records().front().delay_s.value();
  const auto stress_f = log.frequency_series("AS110DC24");
  return ChipMetrics{
      fresh_hz / 1e6,
      100.0 * (1.0 - stress_f.back().value / fresh_hz),
      100.0 * core::recovered_fraction(log.delay_series("AR110N6"),
                                       fresh_delay)};
}

std::string log_bytes(const tb::DataLog& log) {
  std::ostringstream os;
  log.write_csv(os);
  return os.str();
}

/// The whole population, sharded across supervised worker processes (one
/// forked worker per chip, durable checkpoints in a scratch directory).
/// Returns the per-chip logs in chip order.
std::vector<tb::DataLog> run_process_sharded() {
  char tmpl[] = "/tmp/ash_varfleet_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    throw std::runtime_error("mkdtemp failed for the fleet scratch dir");
  }
  const std::string dir = tmpl;
  std::vector<fleet::ShardSpec> shards;
  for (int i = 0; i < kChips; ++i) {
    fleet::ShardSpec spec;
    spec.shard_id = i;
    spec.chip = chip_config(i);
    spec.test_case = variation_case(spec.chip.chip_id);
    shards.push_back(spec);
  }
  fleet::FleetConfig config;
  config.checkpoint_dir = dir;
  fleet::FleetSupervisor supervisor(config, shards);
  const fleet::FleetReport report = supervisor.run();
  std::vector<tb::DataLog> logs;
  if (report.all_completed()) {
    for (const fleet::ShardOutcome& shard : report.shards) {
      logs.push_back(shard.state.log);
    }
  }
  const std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
  if (logs.empty()) {
    throw std::runtime_error("process-sharded population did not complete");
  }
  return logs;
}

}  // namespace

int main() {
  print_banner(
      "Ablation F — chip-to-chip variation of aging and recovery",
      "population statistics behind the paper's single-chip numbers");

  // Pass 1: chips fanned out over an in-process worker pool, collected in
  // chip order so the statistics see the same value sequence as a serial
  // loop.  (Scoped so every thread is joined before the fleet pass forks.)
  std::vector<tb::DataLog> threaded;
  {
    util::ThreadPool pool(util::recommended_pool_size(kChips));
    threaded = pool.parallel_for(kChips, [&](int i) {
      fpga::FpgaChip chip(chip_config(i));
      tb::ExperimentRunner runner{tb::RunnerConfig{}};
      return runner.run(chip, variation_case(i + 1));
    });
  }

  // Pass 2: the same population as a supervised multi-process fleet.
  const std::vector<tb::DataLog> sharded = run_process_sharded();

  // The fleet layer may not perturb the science payload by a single bit.
  std::string bytes_threaded, bytes_sharded;
  for (const tb::DataLog& log : threaded) bytes_threaded += log_bytes(log);
  for (const tb::DataLog& log : sharded) bytes_sharded += log_bytes(log);
  const bool identical = bytes_threaded == bytes_sharded;
  std::printf("threaded vs process-sharded sample logs: %s "
              "(crc32 %08x / %08x)\n\n",
              identical ? "bit-identical" : "DIVERGED",
              util::crc32(bytes_threaded), util::crc32(bytes_sharded));
  if (!identical) return 1;

  std::vector<double> fresh_mhz;
  std::vector<double> degradation_pct;
  std::vector<double> recovered_pct;
  for (const tb::DataLog& log : threaded) {
    const ChipMetrics m = chip_metrics(log);
    fresh_mhz.push_back(m.fresh_mhz);
    degradation_pct.push_back(m.degradation_pct);
    recovered_pct.push_back(m.recovered_pct);
  }

  const auto row = [&](const char* name, std::vector<double> xs) {
    return std::vector<std::string>{
        name,
        fmt_fixed(mean(xs), 2),
        fmt_fixed(stddev(xs), 2),
        fmt_fixed(percentile(xs, 5.0), 2),
        fmt_fixed(percentile(xs, 95.0), 2),
    };
  };
  Table t({"metric (20 chips)", "mean", "sigma", "p5", "p95"});
  t.add_row(row("fresh frequency (MHz)", fresh_mhz));
  t.add_row(row("24 h DC degradation (%)", degradation_pct));
  t.add_row(row("AR110N6 recovered (%)", recovered_pct));
  std::printf("%s\n", t.render().c_str());

  Table s({"observation", "implication"});
  s.add_row({"fresh-frequency spread >> degradation spread",
             "absolute frequency is a bad aging metric"});
  s.add_row({"recovered-fraction spread is small",
             "the paper's Eq. (16) normalization transfers across chips"});
  std::printf("%s\n", s.render().c_str());
  return 0;
}
