#include "ash/fpga/checkpoint.h"

#include <sstream>

#include <gtest/gtest.h>

#include "ash/util/constants.h"

namespace ash::fpga {
namespace {

ChipConfig small_chip_config(std::uint64_t seed = 77) {
  ChipConfig c;
  c.seed = seed;
  c.ro_stages = 9;
  return c;
}

TEST(Checkpoint, ChipRoundTripsBitExact) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(7.0)});
  const double f_before = chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();

  std::ostringstream os;
  save_checkpoint(os, chip);

  // A freshly constructed twin restored from the checkpoint matches
  // exactly.
  FpgaChip twin(small_chip_config());
  EXPECT_NE(twin.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f_before);
  std::istringstream is(os.str());
  load_checkpoint(is, twin);
  EXPECT_DOUBLE_EQ(twin.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f_before);
}

TEST(Checkpoint, ResumedCampaignMatchesUninterruptedRun) {
  // stress 7 h | checkpoint | stress 5 h  ==  stress 12 h straight.
  FpgaChip straight(small_chip_config(3));
  straight.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(12.0)});

  FpgaChip first(small_chip_config(3));
  first.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(7.0)});
  std::ostringstream os;
  save_checkpoint(os, first);

  FpgaChip resumed(small_chip_config(3));
  std::istringstream is(os.str());
  load_checkpoint(is, resumed);
  resumed.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(5.0)});

  EXPECT_NEAR(resumed.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(),
              straight.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), 1e-3);
}

TEST(Checkpoint, FabricRoundTrips) {
  FabricConfig cfg;
  cfg.seed = 5;
  Fabric fab(c17(), cfg);
  fab.age_toggling(bti::ac_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(24.0)});
  const double t_before = fab.timing(Volts{1.2}, Kelvin{celsius(20.0)}).worst_arrival_s.value();

  std::ostringstream os;
  save_checkpoint(os, fab);
  Fabric twin(c17(), cfg);
  std::istringstream is(os.str());
  load_checkpoint(is, twin);
  EXPECT_DOUBLE_EQ(twin.timing(Volts{1.2}, Kelvin{celsius(20.0)}).worst_arrival_s.value(), t_before);
}

TEST(Checkpoint, RejectsKindMismatch) {
  FpgaChip chip(small_chip_config());
  std::ostringstream os;
  save_checkpoint(os, chip);
  FabricConfig cfg;
  Fabric fab(c17(), cfg);
  std::istringstream is(os.str());
  EXPECT_THROW(load_checkpoint(is, fab), std::runtime_error);
}

TEST(Checkpoint, RejectsStructureMismatch) {
  FpgaChip chip(small_chip_config());
  std::ostringstream os;
  save_checkpoint(os, chip);
  ChipConfig other = small_chip_config();
  other.ro_stages = 11;  // different structure
  FpgaChip wrong(other);
  std::istringstream is(os.str());
  EXPECT_THROW(load_checkpoint(is, wrong), std::runtime_error);
}

TEST(Checkpoint, RejectsCorruptedStreams) {
  FpgaChip chip(small_chip_config());
  std::ostringstream os;
  save_checkpoint(os, chip);
  const std::string good = os.str();

  FpgaChip target(small_chip_config());
  {
    std::istringstream is("not-a-checkpoint\n");
    EXPECT_THROW(load_checkpoint(is, target), std::runtime_error);
  }
  {
    // Truncate mid-document.
    std::istringstream is(good.substr(0, good.size() / 2));
    EXPECT_THROW(load_checkpoint(is, target), std::runtime_error);
  }
  {
    // Version bump.
    std::string bad = good;
    bad.replace(bad.find("v1"), 2, "v9");
    std::istringstream is(bad);
    EXPECT_THROW(load_checkpoint(is, target), std::runtime_error);
  }
  {
    // Out-of-range occupancy.
    std::string bad = good;
    const auto pos = bad.find("\nD ");
    bad.replace(pos + 1, 4, "D 2.5");  // mangle a row
    std::istringstream is(bad);
    EXPECT_THROW(load_checkpoint(is, target), std::runtime_error);
  }
}

TEST(Checkpoint, RefusesTokensTheWriterNeverWritesAndLeavesTheChip) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}),
              Seconds{hours(3.0)});
  const std::string good = checkpoint_string(chip);
  FpgaChip target(small_chip_config(9));
  const std::string before = checkpoint_string(target);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = good;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  const std::size_t row_end = good.find('\n', good.find("\nD ") + 1);
  for (const std::string& bad :
       {with("\n", " junk=1\n"),
        std::string(good).insert(row_end, " 0.5"),
        std::string(good).insert(row_end, " "),
        with("\nD ", "\nD  "), with("\nD ", "\nD +"),
        good + "D 0\n", good.substr(0, good.size() - 1)}) {
    EXPECT_THROW(restore_checkpoint(bad, target), std::runtime_error);
    std::istringstream is(bad);
    EXPECT_THROW(load_checkpoint(is, target), std::runtime_error);
    EXPECT_EQ(checkpoint_string(target), before);
  }
  restore_checkpoint(good, target);
  EXPECT_EQ(checkpoint_string(target), good);
}

TEST(Checkpoint, FailedLoadLeavesObjectUntouched) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(3.0)});
  const double f = chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();
  std::istringstream is("ash-checkpoint v1 chip devices=3\nD 1 0.5\n");
  EXPECT_THROW(load_checkpoint(is, chip), std::runtime_error);
  EXPECT_DOUBLE_EQ(chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f);
}

}  // namespace
}  // namespace ash::fpga
