/// Tests for the ash::obs observability layer: histogram bucketing, span
/// nesting, registry snapshots, report publishing (metrics == report,
/// bit-for-bit) and the trace exporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ash/mc/fault.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"
#include "ash/tb/fault.h"

namespace {

using namespace ash;

/// RAII sink attachment so a failing assertion cannot leak a dangling
/// global sink into the next test.
class SinkGuard {
 public:
  explicit SinkGuard(obs::TraceSink* sink) { obs::set_trace_sink(sink); }
  ~SinkGuard() { obs::set_trace_sink(nullptr); }
};

TEST(Histogram, BucketsFollowLogScale) {
  obs::HistogramOptions opt;
  opt.min = 1e-3;
  opt.max = 1e3;
  opt.buckets_per_decade = 2;
  obs::Histogram h(opt);
  // 6 decades x 2 buckets.
  EXPECT_EQ(h.bucket_count(), 12);
  EXPECT_EQ(h.bucket_index(1e-3), 0);
  // One bucket spans half a decade: 10^0.5 ~ 3.162.
  EXPECT_EQ(h.bucket_index(2e-3), 0);
  EXPECT_EQ(h.bucket_index(4e-3), 1);
  EXPECT_EQ(h.bucket_index(1.0), 6);
  EXPECT_EQ(h.bucket_index(5.0), 7);
  // Clamped at both ends; NaN lands in bucket 0 rather than vanishing.
  EXPECT_EQ(h.bucket_index(1e-9), 0);
  EXPECT_EQ(h.bucket_index(1e9), 11);
  EXPECT_EQ(h.bucket_index(std::nan("")), 0);
  // Lower bounds are exact decade fractions.
  EXPECT_NEAR(h.bucket_lower_bound(0), 1e-3, 1e-12);
  EXPECT_NEAR(h.bucket_lower_bound(6), 1.0, 1e-9);
}

TEST(Histogram, ObserveAccumulatesCountSumAndBuckets) {
  obs::Histogram h;
  h.observe(1.0);
  h.observe(1.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 102.0);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[static_cast<std::size_t>(h.bucket_index(1.0))], 2u);
  EXPECT_EQ(buckets[static_cast<std::size_t>(h.bucket_index(100.0))], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  for (const std::uint64_t b : h.bucket_counts()) EXPECT_EQ(b, 0u);
}

TEST(Histogram, QuantileInterpolatesInLogSpace) {
  obs::HistogramOptions opt;
  opt.min = 1e-3;
  opt.max = 1e3;
  opt.buckets_per_decade = 4;
  obs::Histogram h(opt);
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  // All mass in one bucket: every quantile lands inside that bucket's
  // log-space range [10^0, 10^0.25).
  const double p50 = h.quantile(0.50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LT(p50, std::pow(10.0, 0.25));
  // Quantiles are monotone in p.
  EXPECT_LE(h.quantile(0.10), h.quantile(0.50));
  EXPECT_LE(h.quantile(0.50), h.quantile(0.99));
}

TEST(Histogram, QuantileBoundariesClampToHonestEdges) {
  obs::HistogramOptions opt;
  opt.min = 1e-3;
  opt.max = 1e3;
  opt.buckets_per_decade = 4;
  obs::Histogram h(opt);
  // Below-min and at/above-max observations live in the clamped edge
  // buckets; their quantile estimates must not invent values outside
  // [min, max] — the edges are the tightest honest bounds.
  for (int i = 0; i < 10; ++i) h.observe(1e-9);
  for (int i = 0; i < 10; ++i) h.observe(1e9);
  EXPECT_GE(h.quantile(0.0), opt.min);
  EXPECT_LE(h.quantile(0.25), std::pow(10.0, -2.75));  // first bucket
  EXPECT_LE(h.quantile(1.0), opt.max);
  EXPECT_GE(h.quantile(0.9), std::pow(10.0, 2.75));  // last bucket
  // p itself is clamped, not trusted.
  EXPECT_GE(h.quantile(-4.0), opt.min);
  EXPECT_LE(h.quantile(7.0), opt.max);
}

TEST(Histogram, QuantileNanPaths) {
  obs::Histogram empty;
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));  // no observations
  obs::Histogram h;
  h.observe(1.0);
  EXPECT_TRUE(std::isnan(h.quantile(std::nan(""))));  // NaN p
  EXPECT_FALSE(std::isnan(h.quantile(0.5)));
}

TEST(Registry, SnapshotReadsEverything) {
  obs::Registry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(0.25);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a"), 5u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 1.5);
  EXPECT_TRUE(std::isnan(snap.gauge("missing")));
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_FALSE(snap.one_line().empty());
}

TEST(Registry, FilteredKeepsOnlyThePrefix) {
  obs::Registry reg;
  reg.counter("fleet.service.requests").add(4);
  reg.counter("fleet.client.calls").add(2);
  reg.gauge("fleet.service.backoff").set(0.5);
  reg.histogram("fleet.service.latency.ping").observe(1e-4);
  reg.histogram("mc.rel.margin").observe(1.0);
  const auto snap = reg.snapshot();
  const auto fleet = snap.filtered("fleet.service.");
  EXPECT_EQ(fleet.counters.size(), 1u);
  EXPECT_EQ(fleet.counter("fleet.service.requests"), 4u);
  EXPECT_EQ(fleet.gauges.size(), 1u);
  ASSERT_EQ(fleet.histograms.size(), 1u);
  EXPECT_EQ(fleet.histograms[0].name, "fleet.service.latency.ping");
  // "" keeps everything; an unmatched prefix keeps nothing.
  EXPECT_EQ(snap.filtered("").counters.size(), snap.counters.size());
  EXPECT_TRUE(snap.filtered("nope.").counters.empty());
  EXPECT_TRUE(snap.filtered("nope.").histograms.empty());
}

TEST(Registry, RenderedSnapshotsCarryQuantiles) {
  obs::Registry reg;
  auto& h = reg.histogram("lat");
  for (int i = 0; i < 32; ++i) h.observe(1e-3);
  reg.histogram("empty");  // zero-count: no quantile lines
  const auto snap = reg.snapshot();
  const std::string line = snap.one_line();
  EXPECT_NE(line.find("lat.p50="), std::string::npos);
  EXPECT_NE(line.find("lat.p95="), std::string::npos);
  EXPECT_NE(line.find("lat.p99="), std::string::npos);
  EXPECT_EQ(line.find("empty.p50="), std::string::npos);
  const std::string full = snap.render();
  EXPECT_NE(full.find("lat.p50="), std::string::npos);
  EXPECT_NE(full.find("lat.p99="), std::string::npos);
  EXPECT_EQ(full.find("empty.p50="), std::string::npos);
}

TEST(Registry, ReferencesAreStableAcrossRegistrations) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("stable");
  for (int i = 0; i < 100; ++i) {
    reg.counter("churn" + std::to_string(i));
  }
  a.add(1);
  EXPECT_EQ(reg.counter("stable").value(), 1u);
}

TEST(Publish, TbFaultReportMatchesCountersBitForBit) {
  tb::FaultReport r;
  r.chamber_excursions = 3;
  r.sensor_faults = 1;
  r.supply_glitches = 2;
  r.clock_jumps = 4;
  r.readings_dropped = 17;
  r.outlier_readings = 5;
  r.comm_losses = 6;
  r.samples_retried = 21;
  r.samples_suspect = 7;
  r.samples_lost = 2;
  r.phase_aborts = 1;
  r.phases_degraded = 1;
  r.samples_discarded = 40;

  obs::Registry reg;
  r.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("tb.fault.chamber_excursions"),
            static_cast<std::uint64_t>(r.chamber_excursions));
  EXPECT_EQ(snap.counter("tb.fault.sensor_faults"),
            static_cast<std::uint64_t>(r.sensor_faults));
  EXPECT_EQ(snap.counter("tb.fault.supply_glitches"),
            static_cast<std::uint64_t>(r.supply_glitches));
  EXPECT_EQ(snap.counter("tb.fault.clock_jumps"),
            static_cast<std::uint64_t>(r.clock_jumps));
  EXPECT_EQ(snap.counter("tb.fault.readings_dropped"),
            static_cast<std::uint64_t>(r.readings_dropped));
  EXPECT_EQ(snap.counter("tb.fault.outlier_readings"),
            static_cast<std::uint64_t>(r.outlier_readings));
  EXPECT_EQ(snap.counter("tb.fault.comm_losses"),
            static_cast<std::uint64_t>(r.comm_losses));
  EXPECT_EQ(snap.counter("tb.fault.samples_retried"),
            static_cast<std::uint64_t>(r.samples_retried));
  EXPECT_EQ(snap.counter("tb.fault.samples_suspect"),
            static_cast<std::uint64_t>(r.samples_suspect));
  EXPECT_EQ(snap.counter("tb.fault.samples_lost"),
            static_cast<std::uint64_t>(r.samples_lost));
  EXPECT_EQ(snap.counter("tb.fault.phase_aborts"),
            static_cast<std::uint64_t>(r.phase_aborts));
  EXPECT_EQ(snap.counter("tb.fault.phases_degraded"),
            static_cast<std::uint64_t>(r.phases_degraded));
  EXPECT_EQ(snap.counter("tb.fault.samples_discarded"),
            static_cast<std::uint64_t>(r.samples_discarded));
}

TEST(Publish, McReliabilityReportMatchesCountersBitForBit) {
  mc::ReliabilityReport r;
  r.transient_faults = 11;
  r.permanent_deaths = 2;
  r.wear_deaths = 1;
  r.stuck_rails = 3;
  r.sensor_dropouts = 29;
  r.cores_quarantined = 4;
  r.quarantine_releases = 2;
  r.failovers = 5;
  r.core_intervals_lost = 1234;
  r.healthy_margin_exceeded = true;
  r.healthy_time_to_first_margin_s = Seconds{86400.0};

  obs::Registry reg;
  r.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("mc.rel.transient_faults"), 11u);
  EXPECT_EQ(snap.counter("mc.rel.permanent_deaths"), 2u);
  EXPECT_EQ(snap.counter("mc.rel.wear_deaths"), 1u);
  EXPECT_EQ(snap.counter("mc.rel.stuck_rails"), 3u);
  EXPECT_EQ(snap.counter("mc.rel.sensor_dropouts"), 29u);
  EXPECT_EQ(snap.counter("mc.rel.cores_quarantined"), 4u);
  EXPECT_EQ(snap.counter("mc.rel.quarantine_releases"), 2u);
  EXPECT_EQ(snap.counter("mc.rel.failovers"), 5u);
  EXPECT_EQ(snap.counter("mc.rel.core_intervals_lost"), 1234u);
  EXPECT_DOUBLE_EQ(snap.gauge("mc.rel.healthy_margin_exceeded"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauge("mc.rel.healthy_time_to_first_margin_s"),
                   86400.0);
}

TEST(Trace, SpansNestAndCarrySimTime) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);
  obs::set_sim_now(10.0);
  {
    obs::Span outer(obs::EventKind::kRun, "outer", "test");
    obs::set_sim_now(20.0);
    {
      obs::Span inner(obs::EventKind::kPhase, "inner", "test");
      inner.arg("k", "v");
      obs::set_sim_now(30.0);
    }
    obs::set_sim_now(40.0);
  }
  const auto events = buffer.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close inner-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_DOUBLE_EQ(events[0].sim_begin_s.value(), 20.0);
  EXPECT_DOUBLE_EQ(events[0].sim_end_s.value(), 30.0);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "k");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_DOUBLE_EQ(events[1].sim_begin_s.value(), 10.0);
  EXPECT_DOUBLE_EQ(events[1].sim_end_s.value(), 40.0);
  EXPECT_GE(events[1].wall_end_ns, events[1].wall_begin_ns);
}

TEST(Trace, InstantsRecordAtSimNow) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);
  obs::set_sim_now(5.5);
  obs::instant(obs::EventKind::kFaultInjected, "chamber.excursion",
               "tb.fault", {{"magnitude_c", "30"}});
  const auto events = buffer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].span);
  EXPECT_DOUBLE_EQ(events[0].sim_begin_s.value(), 5.5);
  EXPECT_DOUBLE_EQ(events[0].sim_end_s.value(), 5.5);
  EXPECT_EQ(buffer.count(obs::EventKind::kFaultInjected), 1u);
  EXPECT_EQ(buffer.count(obs::EventKind::kRetry), 0u);
}

TEST(Trace, NothingRecordedWithoutSink) {
  obs::TraceBuffer buffer;
  obs::set_trace_sink(nullptr);
  obs::instant(obs::EventKind::kRetry, "x", "y");
  {
    obs::Span s(obs::EventKind::kPhase, "p", "c");
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(obs::tracing());
}

TEST(Trace, ChromeJsonIsWellFormed) {
  obs::TraceBuffer buffer;
  SinkGuard guard(&buffer);
  obs::set_sim_now(0.0);
  {
    obs::Span s(obs::EventKind::kPhase, "AS110\"DC\"24", "tb.phase");
    obs::set_sim_now(1.0);
  }
  obs::instant(obs::EventKind::kMeasurement, "sample", "tb.sample");
  std::ostringstream os;
  buffer.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // The quote in the phase label must be escaped.
  EXPECT_NE(json.find("AS110\\\"DC\\\"24"), std::string::npos);
  // Balanced braces/brackets (crude but catches truncation).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  std::ostringstream jsonl;
  buffer.write_jsonl(jsonl);
  const std::string lines = jsonl.str();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 2);
}

TEST(Profile, TimersAggregateWhenEnabled) {
  obs::reset_profile();
  obs::enable_profiling(true);
  for (int i = 0; i < 2; ++i) {
    const obs::ScopedTimer t(
        obs::kernel_histogram(obs::Kernel::kTrapEnsembleEvolve));
  }
  obs::enable_profiling(false);
  const auto snap = obs::profile_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kernel, obs::Kernel::kTrapEnsembleEvolve);
  EXPECT_EQ(snap[0].calls, 2u);
  // Quantiles come from the kernel's seconds histogram (default layout):
  // finite, ordered, and inside its [min, max] range.
  const obs::HistogramOptions range;
  EXPECT_TRUE(std::isfinite(snap[0].p50_ns));
  EXPECT_TRUE(std::isfinite(snap[0].p99_ns));
  EXPECT_LE(snap[0].p50_ns, snap[0].p99_ns);
  EXPECT_GE(snap[0].p50_ns, range.min * 1e9);
  EXPECT_LE(snap[0].p99_ns, range.max * 1e9);
  EXPECT_FALSE(obs::profile_table().empty());
  obs::reset_profile();
  EXPECT_TRUE(obs::profile_snapshot().empty());
}

TEST(Profile, TimersIdleWhenDisabled) {
  obs::reset_profile();
  obs::enable_profiling(false);
  EXPECT_EQ(obs::kernel_histogram(obs::Kernel::kMcInterval), nullptr);
  {
    const obs::ScopedTimer t(obs::kernel_histogram(obs::Kernel::kMcInterval));
  }
  EXPECT_TRUE(obs::profile_snapshot().empty());
}

}  // namespace
