// Parallel fan-outs must be bit-identical to the serial loops they
// replace (DESIGN.md Sec. 8): every task owns its chip and runner, the
// pool only schedules, and results merge in index order.  This test
// pins that contract with an explicit 4-worker pool (the CI box may be
// single-core, where the default pool degenerates to inline mode and
// would not exercise the cross-thread path at all).

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fpga/chip.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/thread_pool.h"

namespace {

using namespace ash;

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A short three-chip campaign: burn-in + 2 h DC stress + 1 h recovery
// per chip, enough phases to exercise instruments, chamber settling and
// the trap kernel without Table-1 runtimes.
std::vector<tb::TestCase> mini_campaign() {
  std::vector<tb::TestCase> cases;
  for (int chip = 1; chip <= 3; ++chip) {
    tb::TestCase tc;
    tc.name = "mini";
    tc.chip_id = chip;
    tc.phases = {tb::burn_in_phase(),
                 tb::dc_stress_phase("AS110DC2", Celsius{110.0}, units::hours(2.0)),
                 tb::recovery_phase("AR110N1", Volts{-0.3}, Celsius{110.0}, units::hours(1.0))};
    cases.push_back(tc);
  }
  return cases;
}

tb::DataLog run_one(const tb::TestCase& tc) {
  fpga::ChipConfig cc;
  cc.chip_id = tc.chip_id;
  cc.seed = 0x5150 + static_cast<std::uint64_t>(tc.chip_id);
  cc.ro_stages = 25;
  fpga::FpgaChip chip(cc);
  tb::ExperimentRunner runner{tb::RunnerConfig{}};
  return runner.run(chip, tc);
}

TEST(ParallelCampaign, FiveChipFanOutMatchesSerialBitForBit) {
  const auto cases = mini_campaign();

  std::vector<tb::DataLog> serial;
  for (const auto& tc : cases) serial.push_back(run_one(tc));

  util::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4) << "pool must actually spawn workers";
  const auto parallel = pool.parallel_for(
      static_cast<int>(cases.size()),
      [&](int i) { return run_one(cases[static_cast<std::size_t>(i)]); });

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const auto& s = serial[c].records();
    const auto& p = parallel[c].records();
    ASSERT_EQ(s.size(), p.size()) << "chip " << c + 1;
    for (std::size_t r = 0; r < s.size(); ++r) {
      EXPECT_TRUE(bit_equal(s[r].delay_s.value(), p[r].delay_s.value()))
          << "chip " << c + 1 << " record " << r;
      EXPECT_TRUE(bit_equal(s[r].frequency_hz.value(), p[r].frequency_hz.value()))
          << "chip " << c + 1 << " record " << r;
      EXPECT_TRUE(bit_equal(s[r].t_campaign_s.value(), p[r].t_campaign_s.value()))
          << "chip " << c + 1 << " record " << r;
    }
  }
}

}  // namespace
