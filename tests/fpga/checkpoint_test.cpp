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

std::string text_of(const FpgaChip& chip) {
  std::ostringstream os;
  save_checkpoint(os, snapshot(chip));
  return os.str();
}

void restore_text(const std::string& document, FpgaChip& chip) {
  restore(load_checkpoint(document), chip);
}

TEST(Checkpoint, ChipRoundTripsBitExact) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(7.0)});
  const double f_before = chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();

  const std::string doc = text_of(chip);

  // A freshly constructed twin restored from the checkpoint matches
  // exactly.
  FpgaChip twin(small_chip_config());
  EXPECT_NE(twin.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f_before);
  restore_text(doc, twin);
  EXPECT_DOUBLE_EQ(twin.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f_before);
}

TEST(Checkpoint, ResumedCampaignMatchesUninterruptedRun) {
  // stress 7 h | checkpoint | stress 5 h  ==  stress 12 h straight.
  FpgaChip straight(small_chip_config(3));
  straight.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(12.0)});

  FpgaChip first(small_chip_config(3));
  first.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(7.0)});
  const std::string doc = text_of(first);

  FpgaChip resumed(small_chip_config(3));
  restore_text(doc, resumed);
  resumed.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(5.0)});

  EXPECT_NEAR(resumed.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(),
              straight.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), 1e-3);
}

TEST(Checkpoint, RejectsKindMismatch) {
  FpgaChip chip(small_chip_config());
  std::string doc = text_of(chip);
  doc.replace(doc.find(" chip "), 6, " fabric ");
  EXPECT_THROW(restore_text(doc, chip), std::runtime_error);
}

TEST(Checkpoint, RejectsStructureMismatch) {
  FpgaChip chip(small_chip_config());
  ChipConfig other = small_chip_config();
  other.ro_stages = 11;  // different structure
  FpgaChip wrong(other);
  EXPECT_THROW(restore_text(text_of(chip), wrong), std::runtime_error);
}

TEST(Checkpoint, RejectsCorruptedStreams) {
  FpgaChip chip(small_chip_config());
  const std::string good = text_of(chip);

  FpgaChip target(small_chip_config());
  EXPECT_THROW(restore_text("not-a-checkpoint\n", target), std::runtime_error);
  // Truncate mid-document.
  EXPECT_THROW(restore_text(good.substr(0, good.size() / 2), target),
               std::runtime_error);
  {
    // Version bump.
    std::string bad = good;
    bad.replace(bad.find("v1"), 2, "v9");
    EXPECT_THROW(restore_text(bad, target), std::runtime_error);
  }
  {
    // Out-of-range occupancy.
    std::string bad = good;
    const auto pos = bad.find("\nD ");
    bad.replace(pos + 1, 4, "D 2.5");  // mangle a row
    EXPECT_THROW(restore_text(bad, target), std::runtime_error);
  }
}

TEST(Checkpoint, RefusesTokensTheWriterNeverWritesAndLeavesTheChip) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}),
              Seconds{hours(3.0)});
  const std::string good = text_of(chip);
  FpgaChip target(small_chip_config(9));
  const std::string before = text_of(target);
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
    EXPECT_THROW(restore_text(bad, target), std::runtime_error);
    EXPECT_EQ(text_of(target), before);
  }
  restore_text(good, target);
  EXPECT_EQ(text_of(target), good);
}

TEST(Checkpoint, FailedLoadLeavesObjectUntouched) {
  FpgaChip chip(small_chip_config());
  chip.evolve(RoMode::kDcFrozen, bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(3.0)});
  const double f = chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();
  EXPECT_THROW(
      restore_text("ash-checkpoint v1 chip devices=3\nD 1 0.5\n", chip),
      std::runtime_error);
  EXPECT_DOUBLE_EQ(chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value(), f);

  // A state that does not fit the chip is refused before any device moves.
  const ChipState before = snapshot(chip);
  ChipState fresh = snapshot(FpgaChip(small_chip_config()));
  ASSERT_NE(fresh, before);
  ChipState device_short = fresh;
  device_short.devices.pop_back();
  ChipState trap_short = fresh;
  trap_short.devices.back().pop_back();
  ChipState out_of_range = fresh;
  out_of_range.devices.back().back() = 1.5;
  for (const ChipState& bad : {device_short, trap_short, out_of_range}) {
    EXPECT_THROW(restore(bad, chip), std::runtime_error);
    EXPECT_EQ(snapshot(chip), before);
  }
  restore(fresh, chip);
  EXPECT_EQ(snapshot(chip), fresh);
}

}  // namespace
}  // namespace ash::fpga
