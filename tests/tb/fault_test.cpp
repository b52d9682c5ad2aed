#include "ash/tb/fault.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "ash/core/metrics.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"

namespace ash::tb {
namespace {

fpga::FpgaChip small_chip(int id = 2) {
  fpga::ChipConfig c;
  c.chip_id = id;
  c.seed = 42 + static_cast<std::uint64_t>(id);
  c.ro_stages = 15;
  return fpga::FpgaChip(c);
}

TestCase short_case() {
  TestCase tc;
  tc.name = "short";
  tc.chip_id = 2;
  tc.phases = {dc_stress_phase("STRESS", Celsius{110.0}, units::hours(2.0), units::minutes(/*sample min=*/30.0)),
               recovery_phase("RECOVER", Volts{-0.3}, Celsius{110.0}, units::hours(0.5), units::minutes(10.0))};
  return tc;
}

void expect_logs_identical(const DataLog& a, const DataLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.records()[i];
    const auto& rb = b.records()[i];
    EXPECT_EQ(ra.phase, rb.phase) << "record " << i;
    EXPECT_EQ(ra.quality, rb.quality) << "record " << i;
    EXPECT_EQ(ra.retries, rb.retries) << "record " << i;
    EXPECT_EQ(ra.t_campaign_s, rb.t_campaign_s) << "record " << i;
    EXPECT_EQ(ra.t_phase_s, rb.t_phase_s) << "record " << i;
    EXPECT_EQ(ra.chamber_c, rb.chamber_c) << "record " << i;
    EXPECT_EQ(ra.counts, rb.counts) << "record " << i;
    EXPECT_EQ(ra.frequency_hz, rb.frequency_hz) << "record " << i;
    EXPECT_EQ(ra.delay_s, rb.delay_s) << "record " << i;
  }
}

TEST(FaultPlan, PresetsAndLookup) {
  EXPECT_TRUE(FaultPlan::none().ideal());
  EXPECT_TRUE(FaultPlan{}.ideal());
  EXPECT_FALSE(FaultPlan::representative().ideal());
  EXPECT_FALSE(FaultPlan::harsh().ideal());
  EXPECT_TRUE(FaultPlan::by_name("none").ideal());
  EXPECT_FALSE(FaultPlan::by_name("representative").ideal());
  EXPECT_THROW(FaultPlan::by_name("imaginary"), std::invalid_argument);
}

TEST(FaultReport, SerializeRoundTripsAndMerges) {
  FaultReport r;
  r.chamber_excursions = 2;
  r.readings_dropped = 17;
  r.samples_lost = 3;
  r.phase_aborts = 1;
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(FaultReport{}.clean());
  EXPECT_EQ(FaultReport::deserialize(r.serialize()), r);

  FaultReport sum = r;
  sum.merge(r);
  EXPECT_EQ(sum.chamber_excursions, 4);
  EXPECT_EQ(sum.readings_dropped, 34);
  EXPECT_THROW(FaultReport::deserialize("1 2 three"), std::runtime_error);
}

TEST(FaultReport, DeserializeRefusesNegativeCountsAndExtraTokens) {
  const std::string good = FaultReport{}.serialize();
  ASSERT_EQ(good, "0 0 0 0 0 0 0 0 0 0 0 0 0");
  EXPECT_NO_THROW((void)FaultReport::deserialize(good));
  for (const std::string& bad :
       {std::string("-1 0 0 0 0 0 0 0 0 0 0 0 0"), good + " 0",
        good + " junk", std::string("+1 0 0 0 0 0 0 0 0 0 0 0 0"),
        std::string("0  0 0 0 0 0 0 0 0 0 0 0 0"), " " + good}) {
    EXPECT_THROW((void)FaultReport::deserialize(bad), std::runtime_error)
        << "accepted '" << bad << "'";
  }
}

TEST(FaultInjector, DeterministicPerPhaseAndAttempt) {
  const auto plan = FaultPlan::harsh();
  FaultInjector a(plan, /*phase=*/1, /*attempt=*/0, Seconds{7200.0});
  FaultInjector b(plan, 1, 0, Seconds{7200.0});
  for (double t : {0.0, 600.0, 3000.0, 7000.0}) {
    EXPECT_EQ(a.chamber_offset_c(Seconds{t}), b.chamber_offset_c(Seconds{t}));
    EXPECT_EQ(a.supply_offset_v(Seconds{t}), b.supply_offset_v(Seconds{t}));
  }
  EXPECT_EQ(a.clock_offset_ppm(), b.clock_offset_ppm());
  // The same phase re-run as a later attempt draws a different scenario
  // stream (probabilities are also recurrence-scaled).
  FaultInjector c(plan, 1, 1, Seconds{7200.0});
  bool any_differs = false;
  for (double t = 0.0; t < 7200.0; t += 60.0) {
    if (a.chamber_offset_c(Seconds{t}) != c.chamber_offset_c(Seconds{t}) ||
        a.supply_offset_v(Seconds{t}) != c.supply_offset_v(Seconds{t})) {
      any_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_differs || a.clock_offset_ppm() != c.clock_offset_ppm());
}

TEST(FaultInjector, ExcursionGuaranteedAtUnitProbability) {
  FaultPlan plan;
  plan.chamber.excursion_probability = 1.0;
  plan.chamber.excursion_magnitude_c = Celsius{25.0};
  plan.chamber.excursion_duration_s = Seconds{1000.0};
  FaultReport report;
  FaultInjector inj(plan, 0, 0, Seconds{7200.0}, &report);
  EXPECT_EQ(report.chamber_excursions, 1);
  double peak = 0.0;
  for (double t = 0.0; t < 7200.0; t += 10.0) {
    peak = std::max(peak, inj.chamber_offset_c(Seconds{t}).value());
  }
  EXPECT_DOUBLE_EQ(peak, 25.0);
}

TEST(FaultTolerantRunner, IdenticalPlanAndSeedReplayBitIdentically) {
  RunnerConfig config = tolerant_runner_config(FaultPlan::harsh());
  auto chip_a = small_chip();
  auto chip_b = small_chip();
  const auto ra = ExperimentRunner(config).run_campaign(chip_a, short_case());
  const auto rb = ExperimentRunner(config).run_campaign(chip_b, short_case());
  expect_logs_identical(ra.log, rb.log);
  EXPECT_EQ(ra.faults, rb.faults);
  EXPECT_EQ(ra.checkpoint.chip_state, rb.checkpoint.chip_state);
}

TEST(FaultTolerantRunner, HarshLabActuallyFlagsSamples) {
  RunnerConfig config = tolerant_runner_config(FaultPlan::harsh());
  auto chip = small_chip();
  const auto result = ExperimentRunner(config).run_campaign(chip, short_case());
  EXPECT_FALSE(result.faults.clean());
  // Flagged samples stay in the log; the series skip only lost ones.
  EXPECT_EQ(result.log.size(),
            result.log.count_quality(SampleQuality::kGood) +
                result.log.count_quality(SampleQuality::kRetried) +
                result.log.count_quality(SampleQuality::kSuspect) +
                result.log.count_quality(SampleQuality::kLost));
}

TEST(FaultTolerantRunner, WatchdogAbortsAndRewindsOnPersistentExcursion) {
  FaultPlan plan;
  plan.chamber.excursion_probability = 1.0;
  plan.chamber.excursion_magnitude_c = Celsius{30.0};
  plan.chamber.excursion_duration_s = Seconds{5400.0};
  RunnerConfig config = tolerant_runner_config(plan);
  auto chip = small_chip();
  const auto result = ExperimentRunner(config).run_campaign(chip, short_case());
  // Attempt 0 of each phase is guaranteed an excursion far beyond the
  // 5 degC plausibility band, spanning several consecutive samples.
  EXPECT_GE(result.faults.phase_aborts, 1);
  EXPECT_GT(result.faults.samples_discarded, 0);
  EXPECT_TRUE(result.completed);
  // The discarded attempts never reach the final log.
  for (const auto& r : result.log.records()) {
    EXPECT_NE(r.quality, SampleQuality::kLost);
  }
}

TEST(NaiveRunner, LosesEverySampleWhenAllReadingsDrop) {
  FaultPlan plan;
  plan.rig.dropped_reading_probability = 1.0;
  RunnerConfig config = naive_runner_config(plan);
  auto chip = small_chip();
  const auto result = ExperimentRunner(config).run_campaign(chip, short_case());
  // Graceful degradation: nothing is silently dropped — every scheduled
  // sample is logged, flagged kLost, and excluded from the series.
  EXPECT_GT(result.log.size(), 0u);
  EXPECT_EQ(result.log.count_quality(SampleQuality::kLost), result.log.size());
  EXPECT_TRUE(result.log.delay_series("STRESS").empty());
  EXPECT_EQ(core::campaign_yield(result.log).usable_fraction(), 0.0);
}

TEST(FaultTolerantRunner, RetriesRecoverSamplesAndCostSimulatedTime) {
  FaultPlan plan;
  plan.comm.loss_probability = 0.4;  // frequent, but retries get through
  RunnerConfig tolerant = tolerant_runner_config(plan);
  auto chip_a = small_chip();
  const auto faulty =
      ExperimentRunner(tolerant).run_campaign(chip_a, short_case());
  ASSERT_GT(faulty.faults.samples_retried, 0);
  for (const auto& r : faulty.log.records()) {
    if (r.quality == SampleQuality::kRetried) {
      EXPECT_GT(r.retries, 0);
      EXPECT_GT(r.frequency_hz.value(), 0.0);
    }
  }
  // Backoffs run on the simulated clock, so the dirty campaign finishes
  // later than the same schedule in a clean lab.
  auto chip_b = small_chip();
  const auto clean = ExperimentRunner(tolerant_runner_config(FaultPlan::none()))
                         .run_campaign(chip_b, short_case());
  EXPECT_GT(faulty.log.records().back().t_campaign_s,
            clean.log.records().back().t_campaign_s);
}

TEST(CampaignCheckpoint, KillAndResumeReplaysBitIdentically) {
  const auto tc = short_case();
  RunnerConfig config = tolerant_runner_config(FaultPlan::representative());

  auto chip_ref = small_chip();
  const auto reference =
      ExperimentRunner(config).run_campaign(chip_ref, tc);
  ASSERT_TRUE(reference.completed);

  // Kill the campaign mid-way through the second phase...
  RunnerConfig killed_cfg = config;
  killed_cfg.abort_at_campaign_s = Seconds{hours(2.0) + 600.0};
  auto chip_kill = small_chip();
  const auto killed =
      ExperimentRunner(killed_cfg).run_campaign(chip_kill, tc);
  EXPECT_FALSE(killed.completed);
  EXPECT_EQ(killed.checkpoint.next_phase, 1);
  EXPECT_LT(killed.log.size(), reference.log.size());

  // ...and resume from the checkpoint on a freshly constructed chip.
  auto chip_resume = small_chip();
  const auto resumed = ExperimentRunner(config).run_campaign(
      chip_resume, tc, killed.checkpoint);
  ASSERT_TRUE(resumed.completed);
  expect_logs_identical(resumed.log, reference.log);
  EXPECT_EQ(resumed.faults, reference.faults);
  EXPECT_EQ(resumed.checkpoint.chip_state, reference.checkpoint.chip_state);
}

TEST(CampaignCheckpoint, SaveLoadStreamRoundTrip) {
  RunnerConfig config = tolerant_runner_config(FaultPlan::representative());
  config.abort_at_campaign_s = Seconds{hours(1.0)};
  auto chip = small_chip();
  const auto killed = ExperimentRunner(config).run_campaign(chip, short_case());
  ASSERT_FALSE(killed.completed);

  std::stringstream stream;
  killed.checkpoint.save(stream);
  const auto loaded = CampaignCheckpoint::load(stream);

  EXPECT_EQ(loaded.next_phase, killed.checkpoint.next_phase);
  EXPECT_DOUBLE_EQ(loaded.t_campaign_s.value(),
                   killed.checkpoint.t_campaign_s.value());
  EXPECT_DOUBLE_EQ(loaded.chamber_c.value(),
                   killed.checkpoint.chamber_c.value());
  EXPECT_EQ(loaded.chip_state, killed.checkpoint.chip_state);
  EXPECT_EQ(loaded.faults, killed.checkpoint.faults);
  ASSERT_EQ(loaded.log.size(), killed.checkpoint.log.size());
  for (std::size_t i = 0; i < loaded.log.size(); ++i) {
    EXPECT_EQ(loaded.log.records()[i].quality,
              killed.checkpoint.log.records()[i].quality);
    // CSV keeps 6 decimals on times / 9 significant digits on delays.
    EXPECT_NEAR(loaded.log.records()[i].t_campaign_s.value(),
                killed.checkpoint.log.records()[i].t_campaign_s.value(), 1e-5);
    EXPECT_NEAR(loaded.log.records()[i].delay_s.value(),
                killed.checkpoint.log.records()[i].delay_s.value(), 1e-15);
  }

  std::istringstream garbage("not a checkpoint\n");
  EXPECT_THROW(CampaignCheckpoint::load(garbage), std::runtime_error);
}

TEST(CampaignCheckpoint, SerializeDeserializeMatchesStreamForms) {
  auto chip = small_chip();
  const auto ckpt =
      initial_checkpoint(chip, short_case(), tolerant_runner_config(
                                                 FaultPlan::representative()));
  const std::string bytes = ckpt.serialize();
  std::ostringstream via_stream;
  ckpt.save(via_stream);
  EXPECT_EQ(bytes, via_stream.str());

  const auto back = CampaignCheckpoint::deserialize(bytes);
  EXPECT_EQ(back.next_phase, ckpt.next_phase);
  EXPECT_EQ(back.chip_state, ckpt.chip_state);
  // Text-level stability: one parse->print cycle is a fixed point (the
  // property the fleet's payload comparison rests on).
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(CampaignCheckpoint, LoadRejectsTruncationEverywhereWithFieldContext) {
  // Truncate the serialized checkpoint at every line boundary: each prefix
  // must be rejected (never a partially-filled checkpoint), and the error
  // must carry a field name and a stream offset for diagnosis.
  auto chip = small_chip();
  RunnerConfig config = tolerant_runner_config(FaultPlan::representative());
  config.abort_at_campaign_s = Seconds{hours(1.0)};
  const auto killed = ExperimentRunner(config).run_campaign(chip, short_case());
  const std::string doc = killed.checkpoint.serialize();

  int rejected = 0;
  for (std::size_t cut = doc.find('\n'); cut != std::string::npos;
       cut = doc.find('\n', cut + 1)) {
    const std::string prefix = doc.substr(0, cut + 1);
    if (prefix.size() == doc.size()) break;
    try {
      (void)CampaignCheckpoint::deserialize(prefix);
      FAIL() << "prefix of " << prefix.size() << " bytes loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 5);
}

TEST(CampaignCheckpoint, LoadNamesTheMangledField) {
  auto chip = small_chip();
  const auto ckpt = initial_checkpoint(chip, short_case(), RunnerConfig{});
  std::string doc = ckpt.serialize();
  const auto pos = doc.find("t_campaign ");
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, std::string("t_campaign ").size() + 1, "t_campaign garb");
  try {
    (void)CampaignCheckpoint::deserialize(doc);
    FAIL() << "mangled t_campaign loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("t_campaign"), std::string::npos)
        << e.what();
  }
}

TEST(CampaignCheckpoint, HarshCampaignCheckpointAndCsvRoundTripByteForByte) {
  // Every byte string the current writers emit loads: a harsh lab's
  // checkpoint (flagged rows, nonzero fault tallies) and its CSV both come
  // back to the same bytes.  Table 1's chip 1 on a 15-stage RO.
  const RunnerConfig config = tolerant_runner_config(FaultPlan::harsh());
  const TestCase tc = paper_campaign().front();
  fpga::FpgaChip chip(paper_chip_config(tc.chip_id, 15));
  const auto full = ExperimentRunner(config).run_campaign(chip, tc);
  ASSERT_TRUE(full.completed);
  for (const auto q : {SampleQuality::kGood, SampleQuality::kRetried,
                       SampleQuality::kSuspect, SampleQuality::kLost}) {
    EXPECT_GT(full.log.count_quality(q), 0u) << to_string(q);
  }
  std::ostringstream csv;
  full.log.write_csv(csv);
  std::istringstream is(csv.str());
  std::ostringstream again;
  DataLog::read_csv(is).write_csv(again);
  EXPECT_EQ(again.str(), csv.str());

  RunnerConfig killing = config;
  killing.abort_at_campaign_s = Seconds{tc.total_duration_s().value() / 2};
  fpga::FpgaChip chip_kill(paper_chip_config(tc.chip_id, 15));
  const auto killed = ExperimentRunner(killing).run_campaign(chip_kill, tc);
  ASSERT_FALSE(killed.completed);
  ASSERT_FALSE(killed.checkpoint.faults.clean());
  ASSERT_GT(killed.checkpoint.log.size(), 0u);
  const std::string bytes = killed.checkpoint.serialize();
  EXPECT_EQ(CampaignCheckpoint::deserialize(bytes).serialize(), bytes);
}

TEST(CampaignCheckpoint, LoadRefusesWhatTheWriterCannotProduce) {
  auto chip = small_chip();
  const std::string good =
      initial_checkpoint(chip, short_case(), RunnerConfig{}).serialize();
  ASSERT_NO_THROW((void)CampaignCheckpoint::deserialize(good));
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = good;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  for (const std::string& bad :
       {with("t_campaign 0\n", "t_campaign  0\n"),
        with("t_campaign 0\n", "t_campaign 0x0\n"),
        with("chamber_c ", "chamber_c +"),
        with("faults 0 0 0 0 0 0 0 0 0 0 0 0 0\n",
             "faults 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"),
        with("faults 0 ", "faults -1 "),
        // The chip section is read whole, not carried as opaque text.
        with(" 0\nD ", " 0 0.5\nD "), with(" 0\nD ", " 1.5\nD "),
        with("\nD ", "\n")}) {
    try {
      (void)CampaignCheckpoint::deserialize(bad);
      ADD_FAILURE() << "accepted:\n" << bad.substr(0, 200);
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("campaign checkpoint: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(CampaignCheckpoint, PhaseSteppingMatchesOneShotRun) {
  // The fleet workers' stepping primitive: advancing one phase per call
  // through serialized checkpoints must replay the one-shot campaign
  // bit-identically.
  const auto tc = short_case();
  const RunnerConfig config = tolerant_runner_config(FaultPlan::representative());

  auto chip_ref = small_chip();
  const auto reference = ExperimentRunner(config).run_campaign(chip_ref, tc);

  auto chip_step = small_chip();
  ExperimentRunner runner(config);
  auto ckpt = initial_checkpoint(chip_step, tc, config);
  int steps = 0;
  for (;;) {
    // Round-trip through bytes each step, exactly like the durable store.
    ckpt = CampaignCheckpoint::deserialize(ckpt.serialize());
    const auto result = runner.run_campaign(chip_step, tc, ckpt, 1);
    EXPECT_EQ(result.checkpoint.next_phase, ckpt.next_phase + 1);
    ckpt = result.checkpoint;
    ++steps;
    if (result.completed) break;
    ASSERT_LT(steps, 10) << "stepping never completed";
  }
  EXPECT_EQ(steps, static_cast<int>(tc.phases.size()));
  EXPECT_EQ(ckpt.faults, reference.faults);
  EXPECT_EQ(ckpt.chip_state, reference.checkpoint.chip_state);
  // The stepped log passed through a lossy CSV parse each step, so compare
  // at the serialized-text level: print->parse->print is a fixed point, so
  // the N-cycle stepped text must equal the reference after one cycle.
  const std::string ref_text =
      CampaignCheckpoint::deserialize(reference.checkpoint.serialize())
          .serialize();
  EXPECT_EQ(ckpt.serialize(), ref_text);
}

TEST(CampaignCheckpoint, ZeroAndNegativeMaxPhasesBehave) {
  const auto tc = short_case();
  auto chip = small_chip();
  ExperimentRunner runner{RunnerConfig{}};
  const auto ckpt = initial_checkpoint(chip, tc, RunnerConfig{});
  // max_phases = 0: a no-op step that reports not-completed.
  const auto none = runner.run_campaign(chip, tc, ckpt, 0);
  EXPECT_FALSE(none.completed);
  EXPECT_EQ(none.checkpoint.next_phase, 0);
  // Negative = unbounded (runs to the end).
  const auto all = runner.run_campaign(chip, tc, ckpt, -1);
  EXPECT_TRUE(all.completed);
  EXPECT_EQ(all.checkpoint.next_phase, static_cast<int>(tc.phases.size()));
}

}  // namespace
}  // namespace ash::tb
