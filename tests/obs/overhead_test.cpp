/// Overhead guard: the tracing/profiling instrumentation threaded through
/// the simulators must compile down to (almost) nothing when no sink is
/// attached and profiling is off.  The guard runs `mc::simulate_system` —
/// the most densely instrumented loop — both ways and fails if the
/// instrumented-but-idle build costs more than 5% (plus an absolute slack
/// for timer noise on small baselines).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "ash/mc/scheduler.h"
#include "ash/mc/system.h"
#include "ash/obs/flight_recorder.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"

namespace {

using namespace ash;

double run_once_s() {
  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{60.0 * 86400.0};  // two simulated months
  mc::HeaterAwareCircadianScheduler scheduler;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = mc::simulate_system(cfg, scheduler);
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_GT(r.throughput_core_s.value(), 0.0);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best of N runs: the minimum is the least-noisy estimate of the true
/// cost on a shared CI machine.
double best_of(int n) {
  double best = run_once_s();
  for (int i = 1; i < n; ++i) best = std::min(best, run_once_s());
  return best;
}

TEST(Overhead, IdleInstrumentationWithinFivePercent) {
  // Baseline: no sink, no profiling — the instrumentation's idle state.
  obs::set_trace_sink(nullptr);
  obs::enable_profiling(false);

  // The guard tolerates scheduler jitter by retrying: a genuine overhead
  // regression fails every round, CI noise does not.
  constexpr double kRelativeBudget = 0.05;
  constexpr double kAbsoluteSlackS = 0.02;
  bool passed = false;
  double baseline_s = 0.0;
  double idle_s = 0.0;
  for (int round = 0; round < 3 && !passed; ++round) {
    baseline_s = best_of(3);
    idle_s = best_of(3);
    passed =
        idle_s <= baseline_s * (1.0 + kRelativeBudget) + kAbsoluteSlackS;
  }
  EXPECT_TRUE(passed) << "idle instrumentation run took " << idle_s
                      << " s against a baseline of " << baseline_s << " s";
}

TEST(Overhead, NullSinkStaysCheap) {
  // With a NullTraceSink attached and profiling on, everything is emitted
  // and thrown away; this exercises the full hot path.  Budget is looser
  // (the point is "usable", not "free"), and the same retry logic damps
  // machine noise.
  obs::set_trace_sink(nullptr);
  obs::enable_profiling(false);

  obs::NullTraceSink null_sink;
  constexpr double kRelativeBudget = 0.25;
  constexpr double kAbsoluteSlackS = 0.05;
  bool passed = false;
  double baseline_s = 0.0;
  double active_s = 0.0;
  for (int round = 0; round < 3 && !passed; ++round) {
    baseline_s = best_of(3);
    obs::set_trace_sink(&null_sink);
    obs::enable_profiling(true);
    active_s = best_of(3);
    obs::set_trace_sink(nullptr);
    obs::enable_profiling(false);
    passed =
        active_s <= baseline_s * (1.0 + kRelativeBudget) + kAbsoluteSlackS;
  }
  obs::reset_profile();
  EXPECT_TRUE(passed) << "null-sink instrumented run took " << active_s
                      << " s against a baseline of " << baseline_s << " s";
}

TEST(Overhead, DisabledPrimitivesAreBranchCheap) {
  // Micro-guard: a disabled timer/span/clock-publish must cost on the
  // order of a branch, not a clock read or an allocation.  100k disabled
  // timer+span pairs in well under a (generous) 50 ms even on a loaded
  // machine.
  obs::set_trace_sink(nullptr);
  obs::enable_profiling(false);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100000; ++i) {
    obs::set_sim_now(static_cast<double>(i));
    const obs::ScopedTimer timer(
        obs::kernel_histogram(obs::Kernel::kMcInterval));
    obs::Span span(obs::EventKind::kPhase, "p", "c");
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  EXPECT_LT(elapsed_s, 0.05) << "100k disabled primitives took " << elapsed_s
                             << " s";
  EXPECT_TRUE(obs::profile_snapshot().empty());
}

TEST(Overhead, DisabledFlightRecorderAndNullTimersAreBranchCheap) {
  // The fleet daemon's uninstrumented request path: a capacity-0 flight
  // recorder and nullptr latency histograms.  Both must cost a branch —
  // no clock read, no atomic claim, no store.  Same 50 ms budget for 100k
  // iterations as the trace/profile micro-guard above.
  obs::FlightRecorder recorder(0);
  ASSERT_FALSE(recorder.enabled());
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100000; ++i) {
    recorder.record(obs::FlightEventKind::kConnectionAccepted,
                    static_cast<std::uint64_t>(i));
    const obs::ScopedTimer timer(nullptr);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  EXPECT_LT(elapsed_s, 0.05) << "100k disabled recorder+timer iterations "
                             << "took " << elapsed_s << " s";
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.events().empty());
}

}  // namespace
