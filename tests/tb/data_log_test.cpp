#include "ash/tb/data_log.h"

#include <sstream>

#include <gtest/gtest.h>

namespace ash::tb {
namespace {

SampleRecord record(const std::string& phase, double t_phase, double delay) {
  SampleRecord r;
  r.test_case = "chip2";
  r.chip_id = 2;
  r.phase = phase;
  r.t_campaign_s = Seconds{1000.0 + t_phase};
  r.t_phase_s = Seconds{t_phase};
  r.chamber_c = Celsius{110.0};
  r.supply_v = Volts{1.2};
  r.counts = 3300.0;
  r.frequency_hz = Hertz{1.0 / (2.0 * delay)};
  r.delay_s = Seconds{delay};
  return r;
}

DataLog sample_log() {
  DataLog log;
  log.add(record("AS110DC24", 0.0, 150e-9));
  log.add(record("AS110DC24", 3600.0, 151e-9));
  log.add(record("R20Z6", 0.0, 151e-9));
  log.add(record("R20Z6", 1800.0, 150.5e-9));
  return log;
}

TEST(DataLog, PhasesInFirstAppearanceOrder) {
  const auto log = sample_log();
  const auto phases = log.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0], "AS110DC24");
  EXPECT_EQ(phases[1], "R20Z6");
}

TEST(DataLog, PhaseRecordsFilter) {
  const auto log = sample_log();
  EXPECT_EQ(log.phase_records("AS110DC24").size(), 2u);
  EXPECT_EQ(log.phase_records("R20Z6").size(), 2u);
  EXPECT_TRUE(log.phase_records("NOPE").empty());
}

TEST(DataLog, DelaySeriesUsesPhaseTime) {
  const auto s = sample_log().delay_series("AS110DC24");
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].t, 0.0);
  EXPECT_DOUBLE_EQ(s[1].t, 3600.0);
  EXPECT_DOUBLE_EQ(s[1].value, 151e-9);
}

TEST(DataLog, FrequencySeriesConsistentWithDelay) {
  const auto log = sample_log();
  const auto f = log.frequency_series("R20Z6");
  const auto d = log.delay_series("R20Z6");
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i].value, 1.0 / (2.0 * d[i].value), 1.0);
  }
}

TEST(DataLog, CsvRoundTrip) {
  const auto log = sample_log();
  std::ostringstream os;
  log.write_csv(os);
  std::istringstream is(os.str());
  const auto back = DataLog::read_csv(is);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.records()[i].phase, log.records()[i].phase);
    EXPECT_EQ(back.records()[i].chip_id, log.records()[i].chip_id);
    EXPECT_NEAR(back.records()[i].delay_s.value(),
                log.records()[i].delay_s.value(), 1e-15);
    EXPECT_NEAR(back.records()[i].frequency_hz.value(),
                log.records()[i].frequency_hz.value(), 1e-3);
  }
}

TEST(DataLog, AppendMergesLogs) {
  auto a = sample_log();
  const auto b = sample_log();
  a.append(b);
  EXPECT_EQ(a.size(), 8u);
}

TEST(DataLog, QualityFlagsRoundTripThroughCsv) {
  auto log = sample_log();
  auto flagged = record("R20Z6", 2400.0, 150.2e-9);
  flagged.quality = SampleQuality::kRetried;
  flagged.retries = 2;
  log.add(flagged);
  auto lost = record("R20Z6", 3000.0, 0.0);
  lost.quality = SampleQuality::kLost;
  lost.counts = 0.0;
  lost.frequency_hz = Hertz{0.0};
  lost.retries = 3;
  log.add(lost);

  std::ostringstream os;
  log.write_csv(os);
  std::istringstream is(os.str());
  const auto back = DataLog::read_csv(is);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.records()[i].quality, log.records()[i].quality);
    EXPECT_EQ(back.records()[i].retries, log.records()[i].retries);
  }
  EXPECT_EQ(back.count_quality(SampleQuality::kRetried), 1u);
  EXPECT_EQ(back.count_quality(SampleQuality::kLost), 1u);
}

TEST(DataLog, SeriesSkipLostSamplesButKeepFlaggedOnes) {
  auto log = sample_log();
  auto suspect = record("R20Z6", 2400.0, 150.2e-9);
  suspect.quality = SampleQuality::kSuspect;
  log.add(suspect);
  auto lost = record("R20Z6", 3000.0, 0.0);
  lost.quality = SampleQuality::kLost;
  log.add(lost);

  EXPECT_EQ(log.phase_records("R20Z6").size(), 4u);  // nothing dropped
  EXPECT_EQ(log.delay_series("R20Z6").size(), 3u);   // lost excluded
  EXPECT_EQ(log.frequency_series("R20Z6").size(), 3u);
}

TEST(DataLog, ReadsLegacyCsvWithoutQualityColumns) {
  // Logs written before fault tolerance carry no quality/retries columns;
  // they load as all-good.
  const std::string legacy =
      "test_case,chip_id,phase,t_campaign_s,t_phase_s,chamber_c,supply_v,"
      "counts,frequency_hz,delay_s\n"
      "chip2,2,AS110DC24,1000.0,0.0,110.0,1.2,3300.0,3300000.0,1.5e-7\n";
  std::istringstream is(legacy);
  const auto log = DataLog::read_csv(is);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].quality, SampleQuality::kGood);
  EXPECT_EQ(log.records()[0].retries, 0);
}

TEST(DataLog, ReadCsvRefusesCellsOutsideTheWriterGrammar) {
  // A cell loads only when its whole text is a number (an int for the
  // integer columns): "5x" is not chip 5, "1.5 junk" is not 1.5 s, and a
  // stray carriage return is no CRLF ("1\r5" is not 15 s).
  const std::string header =
      "test_case,chip_id,phase,t_campaign_s,t_phase_s,chamber_c,supply_v,"
      "counts,frequency_hz,delay_s,quality,retries\n";
  const std::string good =
      "chip2,5,AS110DC24,1.5,0.000000,110.0,1.2,3300.0,3300000.0,1.5e-7,"
      "good,0\n";
  std::istringstream good_is(header + good);
  ASSERT_EQ(DataLog::read_csv(good_is).size(), 1u);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string row = good;
    return header + row.replace(row.find(from), from.size(), to);
  };
  for (const std::string& bad :
       {with(",5,", ",5x,"), with(",1.5,", ",1.5 junk,"),
        with(",1.5,", ", 1.5,"), with(",1.5,", ",nan,"),
        with(",1.5,", ",inf,"), with(",1.5,", ",+1.5,"),
        with(",1.5,", ",1\r5,"),
        with(",5,", ",5.0,"), with(",0\n", ",-1\n"),
        with(",0\n", ",0x1\n"), with("good", "fine"),
        header.substr(header.find(',') + 1) + good.substr(good.find(',') + 1)}) {
    std::istringstream is(bad);
    EXPECT_THROW((void)DataLog::read_csv(is), std::runtime_error)
        << "accepted '" << bad << "'";
  }
}

TEST(SampleQuality, NamesRoundTrip) {
  for (const auto q : {SampleQuality::kGood, SampleQuality::kRetried,
                       SampleQuality::kSuspect, SampleQuality::kLost}) {
    EXPECT_EQ(parse_sample_quality(to_string(q)), q);
  }
  EXPECT_THROW(parse_sample_quality("fine"), std::invalid_argument);
}

TEST(SampleQuality, ParseErrorNamesTokenAndExpectedSet) {
  try {
    parse_sample_quality("suspct");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'suspct'"), std::string::npos) << what;
    EXPECT_NE(what.find("good|retried|suspect|lost"), std::string::npos)
        << what;
  }
}

TEST(DataLog, AllFourQualitiesRoundTripExactly) {
  // Regression guard for the full quality vocabulary in one log: every
  // SampleQuality value and its retry count must survive export -> import
  // bit-for-bit, in order.
  DataLog log;
  const SampleQuality qualities[] = {
      SampleQuality::kGood, SampleQuality::kRetried, SampleQuality::kSuspect,
      SampleQuality::kLost};
  int retries = 0;
  for (const auto q : qualities) {
    auto r = record("AS110DC24", 600.0 * retries, 150e-9);
    r.quality = q;
    r.retries = retries++;
    log.add(r);
  }

  std::ostringstream os;
  log.write_csv(os);
  std::istringstream is(os.str());
  const auto back = DataLog::read_csv(is);
  ASSERT_EQ(back.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.records()[i].quality, qualities[i]) << "record " << i;
    EXPECT_EQ(back.records()[i].retries, static_cast<int>(i))
        << "record " << i;
  }
}

TEST(DataLog, FractionalDegradationFirstToLastUsable) {
  DataLog log;
  log.add(record("AS110DC24", 0.0, 150e-9));     // f ~ 3.333 MHz
  log.add(record("AS110DC24", 3600.0, 153e-9));  // slower = degraded
  const double f0 = log.records()[0].frequency_hz.value();
  const double f1 = log.records()[1].frequency_hz.value();
  EXPECT_NEAR(log.fractional_degradation(), (f0 - f1) / f0, 1e-12);
  EXPECT_GT(log.fractional_degradation(), 0.0);
}

TEST(DataLog, FractionalDegradationSkipsLostRecords) {
  DataLog log;
  log.add(record("AS110DC24", 0.0, 150e-9));
  auto lost = record("AS110DC24", 1800.0, 0.0);
  lost.quality = SampleQuality::kLost;
  lost.frequency_hz = Hertz{0.0};
  log.add(lost);
  log.add(record("AS110DC24", 3600.0, 152e-9));
  const double f0 = log.records()[0].frequency_hz.value();
  const double f2 = log.records()[2].frequency_hz.value();
  EXPECT_NEAR(log.fractional_degradation(), (f0 - f2) / f0, 1e-12);
}

TEST(DataLog, FractionalDegradationDegenerateCasesAreZero) {
  DataLog empty;
  EXPECT_EQ(empty.fractional_degradation(), 0.0);
  DataLog one;
  one.add(record("AS110DC24", 0.0, 150e-9));
  EXPECT_EQ(one.fractional_degradation(), 0.0);  // one usable record
}

TEST(DataLog, FractionalDegradationNegativeAfterRecovery) {
  // A device that healed past its first sample reports a negative
  // degradation — the rejuvenation ranking must prefer others.
  DataLog log;
  log.add(record("R20Z6", 0.0, 152e-9));
  log.add(record("R20Z6", 1800.0, 150e-9));
  EXPECT_LT(log.fractional_degradation(), 0.0);
}

}  // namespace
}  // namespace ash::tb
