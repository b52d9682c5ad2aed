/// Seeded mutational sweeps (support/fuzz.h) over the text decoders
/// outside the fleet: the fpga chip checkpoint, the campaign checkpoint,
/// its FaultReport line, the DataLog CSV and the flight-recorder dump.
/// `fleet/codec_fuzz_test.cpp` covers the wire, journal and snapshot
/// decoders the same way.  Each mutant must be refused with the format's
/// own error or round-trip; a refused chip restore must leave the chip as
/// it was; a flight dump loads, past an intact header, as the prefix of
/// its well-formed event lines.

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fpga/checkpoint.h"
#include "ash/obs/flight_recorder.h"
#include "ash/tb/data_log.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/fault.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"
#include "ash/util/crc32.h"
#include "support/fuzz.h"

namespace ash {
namespace {

constexpr int kMutantsPerTarget = 2000;
/// A chip checkpoint holds thousands of occupancies, and each mutant costs
/// three saves and two restores of it.
constexpr int kChipMutants = 250;

using fuzz::Outcome;

fpga::ChipConfig tiny_chip_config() {
  fpga::ChipConfig c;
  c.chip_id = 2;
  c.seed = 44;
  c.ro_stages = 3;
  return c;
}

tb::TestCase short_case() {
  tb::TestCase tc;
  tc.name = "short,\"quoted\"";
  tc.chip_id = 2;
  tc.phases = {tb::dc_stress_phase("STRESS", Celsius{110.0}, units::hours(2.0),
                                   units::minutes(30.0)),
               tb::recovery_phase("RECOVER", Volts{-0.3}, Celsius{110.0},
                                  units::hours(0.5), units::minutes(10.0))};
  return tc;
}

std::string text_of(const fpga::FpgaChip& chip) {
  std::ostringstream os;
  fpga::save_checkpoint(os, fpga::snapshot(chip));
  return os.str();
}

tb::CampaignResult killed_short_case() {
  tb::RunnerConfig config =
      tb::tolerant_runner_config(tb::FaultPlan::representative());
  config.abort_at_campaign_s = Seconds{hours(2.2)};  // in RECOVER
  fpga::FpgaChip chip(tiny_chip_config());
  return tb::ExperimentRunner(config).run_campaign(chip, short_case());
}

TEST(FormatFuzz, WritersKeepTheirBytes) {
  // The corpora below, pinned: the chip document fresh and after 3 h of
  // DC stress, and the killed campaign's document.
  fpga::FpgaChip aged(tiny_chip_config());
  const std::string fresh = text_of(aged);
  EXPECT_EQ(fresh.size(), 13730u);
  EXPECT_EQ(util::crc32(fresh), 0x07c4531fu);
  aged.evolve(fpga::RoMode::kDcFrozen,
              bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(3.0)});
  const std::string stressed = text_of(aged);
  EXPECT_EQ(stressed.size(), 69510u);
  EXPECT_EQ(util::crc32(stressed), 0x059d4a34u);
  const std::string campaign = killed_short_case().checkpoint.serialize();
  EXPECT_EQ(campaign.size(), 150864u);
  EXPECT_EQ(util::crc32(campaign), 0x1e238ffbu);
}

TEST(FormatFuzz, ChipCheckpointRejectsOrRoundTripsAndLeavesTheChip) {
  fpga::FpgaChip aged(tiny_chip_config());
  std::vector<std::string> corpus = {text_of(aged)};
  aged.evolve(fpga::RoMode::kDcFrozen,
              bti::dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{hours(3.0)});
  corpus.push_back(text_of(aged));

  fpga::FpgaChip target(tiny_chip_config());
  fuzz::expect_both_outcomes(
      fuzz::sweep(corpus, 6, kChipMutants, [&](const std::string& b) {
        const std::string before = text_of(target);
        const Outcome outcome = fuzz::reject_or_round_trip<std::runtime_error>(
            b,
            [&](const std::string& d) {
              fpga::restore(fpga::load_checkpoint(d), target);
              return text_of(target);
            },
            [](const std::string& saved) { return saved; });
        if (outcome == Outcome::kRejected) {
          EXPECT_EQ(text_of(target), before);
        }
        return outcome;
      }));
}

TEST(FormatFuzz, CampaignCheckpointRejectsOrRoundTrips) {
  const auto killed = killed_short_case();
  ASSERT_GT(killed.checkpoint.log.size(), 0u);
  fpga::FpgaChip fresh(tiny_chip_config());
  const std::vector<std::string> corpus = {
      killed.checkpoint.serialize(),
      tb::initial_checkpoint(fresh, short_case(), tb::RunnerConfig{})
          .serialize()};
  fuzz::expect_both_outcomes(
      fuzz::sweep(corpus, 7, kMutantsPerTarget, [](const std::string& b) {
        return fuzz::reject_or_round_trip<std::runtime_error>(
            b,
            [](const std::string& d) {
              return tb::CampaignCheckpoint::deserialize(d);
            },
            [](const tb::CampaignCheckpoint& c) { return c.serialize(); });
      }));
}

TEST(FormatFuzz, FaultReportRejectsOrRoundTrips) {
  tb::FaultReport busy;
  busy.chamber_excursions = 21;
  busy.readings_dropped = 453;
  busy.samples_suspect = 2147483647;
  busy.samples_discarded = 7;
  const std::vector<std::string> corpus = {tb::FaultReport{}.serialize(),
                                           busy.serialize()};
  fuzz::expect_both_outcomes(
      fuzz::sweep(corpus, 8, kMutantsPerTarget, [](const std::string& b) {
        return fuzz::reject_or_round_trip<std::runtime_error>(
            b,
            [](const std::string& d) { return tb::FaultReport::deserialize(d); },
            [](const tb::FaultReport& r) { return r.serialize(); });
      }));
}

TEST(FormatFuzz, DataLogCsvRejectsOrRoundTrips) {
  tb::DataLog log;
  const tb::SampleQuality qualities[] = {
      tb::SampleQuality::kGood, tb::SampleQuality::kRetried,
      tb::SampleQuality::kSuspect, tb::SampleQuality::kLost};
  for (int i = 0; i < 4; ++i) {
    tb::SampleRecord r;
    r.test_case = i == 0 ? "chip2" : "odd,\"name\"";
    r.chip_id = 2;
    r.phase = "AS110DC24";
    r.t_campaign_s = Seconds{1000.0 + 600.0 * i};
    r.t_phase_s = Seconds{600.0 * i};
    r.chamber_c = Celsius{110.0 - 0.25 * i};
    r.supply_v = Volts{1.2};
    r.counts = 3300.0 + i;
    r.frequency_hz = Hertz{3.3e6 - 10.0 * i};
    r.delay_s = Seconds{1.5e-7 + 1e-10 * i};
    r.quality = qualities[i];
    r.retries = i;
    log.add(r);
  }
  const auto csv_of = [](const tb::DataLog& l) {
    std::ostringstream os;
    l.write_csv(os);
    return os.str();
  };
  fuzz::expect_both_outcomes(fuzz::sweep(
      {csv_of(log)}, 9, kMutantsPerTarget, [&](const std::string& b) {
        return fuzz::reject_or_round_trip<std::runtime_error>(
            b,
            [](const std::string& d) {
              return tb::DataLog::read_csv(std::string_view(d));
            },
            csv_of);
      }));
}

TEST(FormatFuzz, FlightDumpLoadsAPrefixOfWellFormedEventLines) {
  obs::FlightRecorder rec(16);
  rec.record(obs::FlightEventKind::kDaemonStart, 17);
  rec.record(obs::FlightEventKind::kStateLoaded, 17);
  rec.record(obs::FlightEventKind::kSnapshotSaved, 18, 4096);
  rec.record(obs::FlightEventKind::kMutationApplied, 3, 18);
  rec.record(obs::FlightEventKind::kDrainEnd, 18);
  const std::string header = "ash-flight-recorder v1\n";
  fuzz::expect_both_outcomes(fuzz::sweep(
      {rec.serialize()}, 10, kMutantsPerTarget, [&](const std::string& b) {
        std::vector<obs::FlightRecord> events;
        try {
          events = obs::FlightRecorder::load(b);
        } catch (const std::runtime_error&) {
          EXPECT_NE(b.rfind(header, 0), 0u) << "threw past an intact header";
          return Outcome::kRejected;
        }
        // Record i is what the i-th complete event line spells on its own.
        std::vector<std::string> event_lines;
        for (std::size_t pos = header.size(), eol;
             (eol = b.find('\n', pos)) != std::string::npos; pos = eol + 1) {
          const std::string line = b.substr(pos, eol - pos);
          if (line.rfind("event ", 0) == 0) event_lines.push_back(line);
        }
        EXPECT_LE(events.size(), event_lines.size());
        for (std::size_t i = 0;
             i < events.size() && i < event_lines.size(); ++i) {
          const auto alone =
              obs::FlightRecorder::load(header + event_lines[i] + "\n");
          EXPECT_EQ(alone.size(), 1u) << "record " << i << " from '" << b
                                      << "'";
          if (alone.size() != 1) break;
          EXPECT_EQ(alone[0].seq, events[i].seq);
          EXPECT_EQ(alone[0].t_ms, events[i].t_ms);
          EXPECT_EQ(alone[0].kind, events[i].kind);
          EXPECT_EQ(alone[0].a, events[i].a);
          EXPECT_EQ(alone[0].b, events[i].b);
        }
        return Outcome::kRoundTripped;
      }));
}

}  // namespace
}  // namespace ash
