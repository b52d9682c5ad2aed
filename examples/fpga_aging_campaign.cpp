/// fpga_aging_campaign — runs the paper's full Table 1 campaign in the
/// virtual lab and exports every measurement to CSV.
///
/// Five chips, each through its burn-in + stress + recovery schedule, with
/// the measurement procedure of Sec. 4 (gated 16-bit counting at fref =
/// 500 Hz, samples every 20 min under stress / 30 min during recovery).
/// The per-chip CSV logs can be plotted directly against Figures 4–8.
///
/// Usage:
///   ./build/examples/fpga_aging_campaign [output_dir]
/// (default output_dir: current directory; files campaign_chipN.csv)

#include <cstdio>
#include <fstream>
#include <string>

#include "ash/core/metrics.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/table.h"
#include "ash/util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace ash;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  Table summary({"chip", "schedule", "samples", "fresh f (MHz)",
                 "worst degradation", "final recovered"});

  const auto cases = tb::paper_campaign();
  for (const auto& test_case : cases) {
    std::printf("running %s (chip %d, %.0f h of schedule)...\n",
                test_case.name.c_str(), test_case.chip_id,
                test_case.total_duration_s().value() / 3600.0);
  }
  util::ThreadPool pool(
      util::recommended_pool_size(static_cast<int>(cases.size())));
  const auto results = tb::run_paper_campaign(pool, tb::RunnerConfig{}, 75);

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& test_case = cases[ci];
    const tb::DataLog& log = results[ci].log;

    const std::string path =
        out_dir + "/campaign_chip" + std::to_string(test_case.chip_id) +
        ".csv";
    std::ofstream os(path);
    log.write_csv(os);
    std::printf("  wrote %zu samples to %s\n", log.size(), path.c_str());

    // Summary metrics.
    const double fresh_hz = log.records().front().frequency_hz.value();
    const double fresh_delay = log.records().front().delay_s.value();
    double worst_deg = 0.0;
    for (const auto& r : log.records()) {
      worst_deg = std::max(worst_deg, 1.0 - r.frequency_hz.value() / fresh_hz);
    }
    // Recovery summary: recovered fraction of the last recovery phase, if
    // the schedule has one.
    std::string recovered = "-";
    const auto phases = log.phases();
    for (auto it = phases.rbegin(); it != phases.rend(); ++it) {
      if (it->rfind("AR", 0) == 0 || it->rfind("R2", 0) == 0) {
        recovered = fmt_percent(
            core::recovered_fraction(log.delay_series(*it), fresh_delay), 1);
        break;
      }
    }

    std::string schedule;
    for (const auto& p : test_case.phases) {
      if (!schedule.empty()) schedule += " > ";
      schedule += p.label;
    }
    summary.add_row({strformat("%d", test_case.chip_id), schedule,
                     strformat("%zu", log.size()),
                     fmt_fixed(fresh_hz / 1e6, 3),
                     fmt_percent(worst_deg, 2), recovered});
  }

  std::printf("\n%s", summary.render().c_str());
  std::printf(
      "\nColumns map to the paper: worst degradation ~ Table 2; final\n"
      "recovered ~ the 'within 90%% of original margin' headline (Table 4).\n");
  return 0;
}
