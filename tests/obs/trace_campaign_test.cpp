/// End-to-end observability: run real campaigns with a trace sink attached
/// and check that the trace, the fault/reliability reports and the metrics
/// registry all tell the same story.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "ash/fpga/chip.h"
#include "ash/mc/reliability.h"
#include "ash/mc/system.h"
#include "ash/obs/metrics.h"
#include "ash/obs/trace.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"

namespace {

using namespace ash;

class SinkGuard {
 public:
  explicit SinkGuard(obs::TraceSink* sink) { obs::set_trace_sink(sink); }
  ~SinkGuard() { obs::set_trace_sink(nullptr); }
};

tb::CampaignResult run_chip5(const tb::RunnerConfig& config) {
  tb::TestCase tc = tb::campaign_case("AR110N6");  // the chip-5 schedule
  // A small chip keeps the test quick.
  fpga::FpgaChip chip(tb::paper_chip_config(tc.chip_id, 15));
  return tb::ExperimentRunner(config).run_campaign(chip, tc);
}

TEST(TraceCampaign, EveryPhaseGetsASpanAndEveryFaultAnEvent) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);

  tb::FaultPlan plan = tb::FaultPlan::representative();
  const auto result = run_chip5(tb::tolerant_runner_config(plan));
  ASSERT_TRUE(result.completed);

  // One phase span per (phase, attempt); at least one per phase.
  std::set<std::string> span_labels;
  for (const auto& e : buffer.events()) {
    if (e.kind == obs::EventKind::kPhase) {
      EXPECT_TRUE(e.span);
      EXPECT_GE(e.sim_end_s, e.sim_begin_s);
      span_labels.insert(e.name);
    }
  }
  const tb::TestCase tc = tb::campaign_case("AR110N6");
  for (const auto& phase : tc.phases) {
    EXPECT_TRUE(span_labels.count(phase.label))
        << "no span for phase " << phase.label;
  }
  EXPECT_EQ(buffer.count(obs::EventKind::kRun), 1u);
  EXPECT_EQ(buffer.count(obs::EventKind::kPhaseTransition), tc.phases.size());

  // Every injected fault event in the report has a matching trace instant
  // (injected tallies survive phase rewinds, and so do their instants).
  const auto& faults = result.faults;
  const auto injected = static_cast<std::size_t>(
      faults.chamber_excursions + faults.sensor_faults +
      faults.supply_glitches + faults.clock_jumps + faults.readings_dropped +
      faults.outlier_readings + faults.comm_losses);
  EXPECT_EQ(buffer.count(obs::EventKind::kFaultInjected), injected);
  EXPECT_GT(injected, 0u) << "representative plan injected nothing";

  // Accepted samples each logged a measurement instant; rewound attempts
  // may add more (their samples left the log but the instants remain).
  EXPECT_GE(buffer.count(obs::EventKind::kMeasurement), result.log.size());
  EXPECT_EQ(buffer.count(obs::EventKind::kCheckpointSave), tc.phases.size());
  EXPECT_EQ(buffer.count(obs::EventKind::kCheckpointRewind),
            static_cast<std::size_t>(faults.phase_aborts));

  // Publishing the report yields counters equal to the report, which in
  // turn equal the trace: three views, one truth.
  obs::Registry reg;
  faults.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("tb.fault.chamber_excursions"),
            static_cast<std::uint64_t>(faults.chamber_excursions));
  EXPECT_EQ(snap.counter("tb.fault.phase_aborts"),
            buffer.count(obs::EventKind::kCheckpointRewind));
}

TEST(TraceCampaign, IdealRunInjectsNothing) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);
  const auto result = run_chip5(tb::RunnerConfig{});
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.faults.clean());
  EXPECT_EQ(buffer.count(obs::EventKind::kFaultInjected), 0u);
  EXPECT_EQ(buffer.count(obs::EventKind::kRetry), 0u);
  EXPECT_GT(buffer.count(obs::EventKind::kMeasurement), 0u);
}

TEST(TraceMulticore, ManagerResponsesMatchReportAndTrace) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);

  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{0.5 * 365.25 * 86400.0};
  cfg.margin_delta_vth_v = Volts{8e-3};
  auto plan = mc::CoreFaultPlan::harsh();  // plenty of events in half a year

  mc::HeaterAwareCircadianScheduler circadian;
  mc::ReliabilityConfig rel;
  rel.margin_delta_vth_v = cfg.margin_delta_vth_v;
  mc::ReliabilityReport report;
  mc::ReliabilityManager managed(circadian, rel, &report);
  const auto r = mc::simulate_system(cfg, managed, plan, &report);
  EXPECT_GT(r.throughput_core_s.value(), 0.0);

  EXPECT_EQ(buffer.count(obs::EventKind::kRun), 1u);
  const auto injected = static_cast<std::size_t>(
      report.transient_faults + report.permanent_deaths + report.stuck_rails +
      report.sensor_dropouts + report.sensor_stuck_windows);
  EXPECT_EQ(buffer.count(obs::EventKind::kFaultInjected), injected);
  EXPECT_GT(injected, 0u) << "harsh plan injected nothing in half a year";
  EXPECT_EQ(buffer.count(obs::EventKind::kQuarantine),
            static_cast<std::size_t>(report.cores_quarantined));
  EXPECT_EQ(buffer.count(obs::EventKind::kQuarantineRelease),
            static_cast<std::size_t>(report.quarantine_releases));
  EXPECT_EQ(buffer.count(obs::EventKind::kFailover),
            static_cast<std::size_t>(report.failovers));
  EXPECT_EQ(buffer.count(obs::EventKind::kFaultDetected),
            static_cast<std::size_t>(report.rails_flagged +
                                     report.thermal_trips));
}

}  // namespace
