/// Tests for the ash::obs observability layer: duration histograms, span
/// nesting, registry snapshots, report publishing (metrics == report,
/// bit-for-bit) and the trace exporters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "ash/mc/fault.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"
#include "ash/tb/fault.h"
#include "ash/util/random.h"
#include "ash/util/table.h"

namespace {

using namespace ash;

/// RAII sink attachment so a failing assertion cannot leak a dangling
/// global sink into the next test.
class SinkGuard {
 public:
  explicit SinkGuard(obs::TraceSink* sink) { obs::set_trace_sink(sink); }
  ~SinkGuard() { obs::set_trace_sink(nullptr); }
};

TEST(Histogram, BucketsFollowExponentBits) {
  using H = obs::Histogram;
  // 0-3 ns get their own buckets; 4-7 ns are the first linear octave.
  for (const std::uint64_t ns : {0, 1, 3, 4, 5, 7, 8}) {
    EXPECT_EQ(H::bucket_index(ns), static_cast<int>(ns)) << ns;
  }
  // Every power of two opens an octave of 4 sub-buckets, each a quarter
  // of the octave's lower edge wide; 2^k - 1 closes the octave below.
  for (int k = 2; k < 64; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    const std::uint64_t quarter = edge >> 2;
    EXPECT_EQ(H::bucket_index(edge), 4 * (k - 1)) << k;
    EXPECT_EQ(H::bucket_index(edge - 1), 4 * (k - 1) - 1) << k;
    EXPECT_EQ(H::bucket_index(edge + quarter - 1), 4 * (k - 1)) << k;
    EXPECT_EQ(H::bucket_index(edge + quarter), 4 * (k - 1) + 1) << k;
  }
  // Nothing clamps: the largest duration has the last bucket.
  EXPECT_EQ(H::bucket_index(UINT64_MAX), H::kBuckets - 1);
  EXPECT_EQ(obs::Histogram{}.bucket_counts().size(),
            static_cast<std::size_t>(H::kBuckets));
}

TEST(Histogram, ObserveAccumulatesCountSumAndBuckets) {
  obs::Histogram h;
  h.observe_ns(1000);
  h.observe_ns(1000);
  h.observe_ns(100000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_ns(), 102000u);
  const auto buckets = h.bucket_counts();
  EXPECT_EQ(buckets[static_cast<std::size_t>(h.bucket_index(1000))], 2u);
  EXPECT_EQ(buckets[static_cast<std::size_t>(h.bucket_index(100000))], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ns(), 0u);
  for (const std::uint64_t b : h.bucket_counts()) EXPECT_EQ(b, 0u);
}

TEST(Histogram, QuantileInterpolatesLinearlyInBucket) {
  obs::Histogram h;
  // 1000 ns lies in [896, 1024): all mass in one bucket, and the rank
  // target walks linearly across it.
  for (int i = 0; i < 100; ++i) h.observe_ns(1000);
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.50), 896.0 + 0.50 * 128.0);
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.99), 896.0 + 0.99 * 128.0);
  EXPECT_DOUBLE_EQ(h.quantile_ns(1.0), 1024.0);
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.0), 896.0 + 0.01 * 128.0);  // rank 1
}

TEST(Histogram, OneSampleReportsItsBucketsUpperEdge) {
  // Every quantile of a one-sample histogram is the upper edge of the
  // sample's bucket: at most 25% above the sample, never below it.
  for (const std::uint64_t ns : {5ULL, 562000ULL, 1000000ULL, 999999999ULL}) {
    obs::Histogram h;
    h.observe_ns(ns);
    for (const double p : {0.0, 0.5, 0.99, 1.0}) {
      const double q = h.quantile_ns(p);
      EXPECT_EQ(q, h.quantile_ns(1.0)) << ns;
      EXPECT_GT(q, static_cast<double>(ns)) << ns;
      EXPECT_LE(q, 1.25 * static_cast<double>(ns)) << ns;
    }
  }
  obs::Histogram h;
  h.observe_ns(562000);  // [524288, 655360): upper edge 655360 ns
  EXPECT_DOUBLE_EQ(h.quantile_ns(0.5), 655360.0);
}

TEST(Histogram, QuantileBoundariesClampToHonestEdges) {
  obs::Histogram h;
  // Ten samples at 10 ns ([10, 12)) and ten at 1 s ([939524096,
  // 1073741824)): estimates never leave the occupied buckets' edges.
  for (int i = 0; i < 10; ++i) h.observe_ns(10);
  for (int i = 0; i < 10; ++i) h.observe_ns(1000000000);
  EXPECT_GE(h.quantile_ns(0.0), 10.0);
  EXPECT_LE(h.quantile_ns(0.5), 12.0);
  EXPECT_GE(h.quantile_ns(0.55), 939524096.0);
  EXPECT_DOUBLE_EQ(h.quantile_ns(1.0), 1073741824.0);
  // p itself is clamped, not trusted.
  EXPECT_EQ(h.quantile_ns(-4.0), h.quantile_ns(0.0));
  EXPECT_EQ(h.quantile_ns(7.0), h.quantile_ns(1.0));
  // Quantiles are monotone in p.
  double last = h.quantile_ns(0.0);
  for (int i = 1; i <= 100; ++i) {
    const double q = h.quantile_ns(i / 100.0);
    EXPECT_GE(q, last) << i;
    last = q;
  }
}

TEST(Histogram, QuantilesWithinOneBucketOfTheOrderStatistic) {
  // Seeded log-uniform durations from 100 ns to 10 s: each estimate lies
  // in the bucket of its exact order statistic, so within 25% of it.
  Rng rng(0x0B5D);
  std::vector<std::uint64_t> ns(4000);
  obs::Histogram h;
  for (auto& v : ns) {
    v = static_cast<std::uint64_t>(std::exp(rng.uniform(std::log(1e2),
                                                        std::log(1e10))));
    h.observe_ns(v);
  }
  std::sort(ns.begin(), ns.end());
  for (const double p : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const double exact = static_cast<double>(
        ns[static_cast<std::size_t>(std::llround(p * 4000.0)) - 1]);
    EXPECT_NEAR(h.quantile_ns(p), exact, 0.25 * exact) << p;
  }
}

TEST(Histogram, SumIsExactInNs) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  // 1 ns beside 2^53 ns: a double-seconds sum drops the 1 ns.
  const std::uint64_t big = std::uint64_t{1} << 53;
  h.observe_ns(1);
  h.observe_ns(big);
  h.observe_ns(999999999);
  EXPECT_EQ(h.sum_ns(), big + 1000000000u);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].sum_ns, big + 1000000000u);
  EXPECT_EQ(snap.histograms[0].count, 3u);
  // .sum renders in seconds.
  const std::string sum_line = "h.sum=" +
      strformat("%.9g", static_cast<double>(big + 1000000000u) * 1e-9) + "\n";
  EXPECT_NE(snap.render().find(sum_line), std::string::npos);
}

TEST(Histogram, ConcurrentObserveIsExact) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe_ns(i * static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  // sum over t of (t + 1) * (0 + 1 + ... + kPerThread - 1).
  const std::uint64_t triangle = kPerThread * (kPerThread - 1) / 2;
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum_ns(), (1 + 2 + 3 + 4) * triangle);
}

TEST(Histogram, QuantileNanPaths) {
  obs::Histogram empty;
  EXPECT_TRUE(std::isnan(empty.quantile_ns(0.5)));  // no observations
  obs::Histogram h;
  h.observe_ns(1000);
  EXPECT_TRUE(std::isnan(h.quantile_ns(std::nan(""))));  // NaN p
  EXPECT_FALSE(std::isnan(h.quantile_ns(0.5)));
}

TEST(Registry, SnapshotReadsEverything) {
  obs::Registry reg;
  reg.counter("a").add(3);
  reg.counter("a").add(2);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe_ns(250000000);
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
  reg.histogram("fleet.service.latency.ping").observe_ns(100000);
  reg.histogram("mc.rel.margin").observe_ns(1000000000);
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
  for (int i = 0; i < 32; ++i) h.observe_ns(1000000);
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
  // Quantiles come from the kernel's ns histogram: finite and ordered.
  EXPECT_TRUE(std::isfinite(snap[0].p50_ns));
  EXPECT_TRUE(std::isfinite(snap[0].p99_ns));
  EXPECT_LE(snap[0].p50_ns, snap[0].p99_ns);
  EXPECT_FALSE(obs::profile_table().empty());
  obs::reset_profile();
  EXPECT_TRUE(obs::profile_snapshot().empty());
}

TEST(Profile, TotalNsIsTheExactSum) {
  obs::reset_profile();
  obs::enable_profiling(true);
  obs::Histogram* h = obs::kernel_histogram(obs::Kernel::kMcTelemetry);
  obs::enable_profiling(false);
  ASSERT_NE(h, nullptr);
  std::uint64_t exact = 0;
  for (std::uint64_t ns = 1; ns < 5000000000ULL; ns = ns * 3 + 7) {
    h->observe_ns(ns);
    exact += ns;
  }
  const auto snap = obs::profile_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kernel, obs::Kernel::kMcTelemetry);
  EXPECT_EQ(snap[0].calls, h->count());
  EXPECT_EQ(snap[0].total_ns, exact);
  obs::reset_profile();
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
