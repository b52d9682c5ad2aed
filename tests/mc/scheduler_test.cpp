#include "ash/mc/scheduler.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace ash::mc {
namespace {

SchedulerContext context(int interval, int cores_needed,
                         std::vector<double> aging = {}) {
  static const Floorplan fp;
  SchedulerContext ctx;
  ctx.interval_index = interval;
  ctx.cores_needed = cores_needed;
  ctx.floorplan = &fp;
  ctx.delta_vth = aging.empty() ? std::vector<double>(8, 0.0) : std::move(aging);
  return ctx;
}

TEST(AllActive, EveryoneRuns) {
  AllActiveScheduler s;
  const auto a = s.assign(context(0, 6));
  EXPECT_EQ(active_count(a), 8);
}

TEST(RoundRobin, SleepsExactlyTheSlack) {
  RoundRobinSleepScheduler s(/*rejuvenate=*/true);
  const auto a = s.assign(context(0, 6));
  EXPECT_EQ(active_count(a), 6);
  int rejuvenating = 0;
  for (auto m : a) {
    if (m == CoreMode::kSleepRejuvenate) ++rejuvenating;
  }
  EXPECT_EQ(rejuvenating, 2);
}

TEST(RoundRobin, PassiveVariantUsesPassiveSleep) {
  RoundRobinSleepScheduler s(/*rejuvenate=*/false);
  const auto a = s.assign(context(0, 6));
  for (auto m : a) EXPECT_NE(m, CoreMode::kSleepRejuvenate);
}

TEST(RoundRobin, RotatesThroughAllCores) {
  RoundRobinSleepScheduler s(true);
  std::set<int> ever_slept;
  for (int k = 0; k < 8; ++k) {
    const auto a = s.assign(context(k, 6));
    for (int i = 0; i < 8; ++i) {
      if (a[static_cast<std::size_t>(i)] != CoreMode::kActive) {
        ever_slept.insert(i);
      }
    }
  }
  EXPECT_EQ(ever_slept.size(), 8u);  // fairness
}

TEST(HeaterAware, SleepsExactlyTheSlackAndRejuvenates) {
  HeaterAwareCircadianScheduler s;
  const auto a = s.assign(context(0, 6));
  EXPECT_EQ(active_count(a), 6);
  for (auto m : a) EXPECT_NE(m, CoreMode::kSleepPassive);
}

TEST(HeaterAware, SleepersAreNotAdjacent) {
  // With two sleepers on the 2x4 grid, spreading them keeps each one
  // surrounded by heaters; adjacent sleepers would shade each other.
  HeaterAwareCircadianScheduler s;
  static const Floorplan fp;
  for (int k = 0; k < 16; ++k) {
    const auto a = s.assign(context(k, 6));
    std::vector<int> sleepers;
    for (int i = 0; i < 8; ++i) {
      if (a[static_cast<std::size_t>(i)] != CoreMode::kActive) {
        sleepers.push_back(i);
      }
    }
    ASSERT_EQ(sleepers.size(), 2u);
    EXPECT_FALSE(fp.adjacent(sleepers[0], sleepers[1])) << "interval " << k;
  }
}

TEST(HeaterAware, RotatesForFairness) {
  HeaterAwareCircadianScheduler s;
  std::set<int> ever_slept;
  for (int k = 0; k < 32; ++k) {
    const auto a = s.assign(context(k, 6));
    for (int i = 0; i < 8; ++i) {
      if (a[static_cast<std::size_t>(i)] != CoreMode::kActive) {
        ever_slept.insert(i);
      }
    }
  }
  EXPECT_GE(ever_slept.size(), 6u);
}

TEST(HeaterAware, PrefersAgedCores) {
  HeaterAwareCircadianScheduler s;
  std::vector<double> aging(8, 0.0);
  aging[3] = 10e-3;  // badly aged corner-ish core
  const auto a = s.assign(context(0, 7, aging));  // one sleeper
  EXPECT_EQ(a[3], CoreMode::kSleepRejuvenate);
}

TEST(Reactive, SleepsNothingWhenHealthy) {
  ReactiveScheduler s(Volts{5e-3});
  const auto a = s.assign(context(0, 6));
  EXPECT_EQ(active_count(a), 8);
}

TEST(Reactive, SleepsMostAgedAboveThreshold) {
  ReactiveScheduler s(Volts{5e-3});
  std::vector<double> aging{1e-3, 6e-3, 2e-3, 9e-3, 1e-3, 7e-3, 0.0, 0.0};
  const auto a = s.assign(context(0, 6, aging));  // at most 2 sleepers
  EXPECT_EQ(active_count(a), 6);
  EXPECT_EQ(a[3], CoreMode::kSleepRejuvenate);  // worst
  EXPECT_EQ(a[5], CoreMode::kSleepRejuvenate);  // second worst
  EXPECT_EQ(a[1], CoreMode::kActive);           // above threshold but capped
}

TEST(Reactive, NeverStarvesTheWorkload) {
  ReactiveScheduler s(Volts{1e-6});
  std::vector<double> aging(8, 1e-3);  // everyone above threshold
  const auto a = s.assign(context(0, 6, aging));
  EXPECT_EQ(active_count(a), 6);
}

TEST(Schedulers, ValidateContext) {
  AllActiveScheduler s;
  SchedulerContext bad;
  bad.floorplan = nullptr;
  EXPECT_THROW(s.assign(bad), std::invalid_argument);
  auto ctx2 = context(0, 6);
  ctx2.delta_vth.resize(3);
  EXPECT_THROW(s.assign(ctx2), std::invalid_argument);
}

TEST(Schedulers, OverloadedDemandIsClampedNotThrown) {
  // Demand beyond the core count degrades gracefully: every core runs and
  // the overhang is the caller's deficit, not an exception.
  RoundRobinSleepScheduler rr(/*rejuvenate=*/true);
  auto ctx = context(0, 6);
  ctx.cores_needed = 99;
  EXPECT_EQ(active_count(rr.assign(ctx)), 8);
  HeaterAwareCircadianScheduler h;
  EXPECT_EQ(active_count(h.assign(ctx)), 8);
  ReactiveScheduler reactive(Volts{1e-6});
  EXPECT_EQ(active_count(reactive.assign(ctx)), 8);
}

TEST(SchedulerContext, SetDemandClampsAndRecordsDeficit) {
  static const Floorplan fp;
  SchedulerContext ctx;
  ctx.floorplan = &fp;
  ctx.set_demand(11);
  EXPECT_EQ(ctx.cores_needed, 8);
  EXPECT_EQ(ctx.demand_deficit, 3);
  ctx.set_demand(-2);
  EXPECT_EQ(ctx.cores_needed, 0);
  EXPECT_EQ(ctx.demand_deficit, 0);
  ctx.set_demand(5);
  EXPECT_EQ(ctx.cores_needed, 5);
  EXPECT_EQ(ctx.demand_deficit, 0);
  SchedulerContext no_fp;
  EXPECT_THROW(no_fp.set_demand(4), std::invalid_argument);
}

TEST(Schedulers, TolerateNaNTelemetry) {
  // Poisoned telemetry (dropped odometer readings, dead cores) must not
  // propagate NaN into scores or sort comparators.
  std::vector<double> poisoned(8, std::nan(""));
  poisoned[2] = 4e-3;
  HeaterAwareCircadianScheduler h;
  const auto a = h.assign(context(0, 6, poisoned));
  EXPECT_EQ(active_count(a), 6);
  ReactiveScheduler reactive(Volts{1e-3});
  const auto b = reactive.assign(context(0, 6, poisoned));
  // The only finite reading is above threshold: it sleeps; the NaN cores
  // are treated as unaged and must not be chosen reactively.
  EXPECT_EQ(active_count(b), 7);
  EXPECT_EQ(b[2], CoreMode::kSleepRejuvenate);
  for (int i = 0; i < 8; ++i) {
    if (i != 2) {
      EXPECT_EQ(b[static_cast<std::size_t>(i)], CoreMode::kActive);
    }
  }
}

TEST(Schedulers, AllNaNTelemetryStillSchedules) {
  const std::vector<double> poisoned(8, std::nan(""));
  HeaterAwareCircadianScheduler h;
  for (int k = 0; k < 8; ++k) {
    const auto a = h.assign(context(k, 6, poisoned));
    EXPECT_EQ(active_count(a), 6) << "interval " << k;
  }
  ReactiveScheduler reactive(Volts{1e-3});
  const auto b = reactive.assign(context(0, 6, poisoned));
  EXPECT_EQ(active_count(b), 8);  // no evidence of aging: nobody sleeps
}

TEST(Schedulers, NamesAreDistinct) {
  AllActiveScheduler a;
  RoundRobinSleepScheduler r(true);
  RoundRobinSleepScheduler rp(false);
  HeaterAwareCircadianScheduler h;
  ReactiveScheduler x(Volts{1e-3});
  const std::set<std::string> names{a.name(), r.name(), rp.name(), h.name(),
                                    x.name()};
  EXPECT_EQ(names.size(), 5u);
}

}  // namespace
}  // namespace ash::mc
