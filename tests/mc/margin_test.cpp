#include "ash/mc/margin.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ash/bti/closed_form.h"
#include "ash/bti/condition.h"
#include "ash/fleet/service.h"
#include "ash/util/random.h"
#include "ash/util/units.h"

namespace ash::mc {
namespace {

bti::ClosedFormModel model() { return bti::ClosedFormModel({}); }

TEST(MarginOutlook, FreshDeviceUnderHarshStressEventuallyCrosses) {
  MarginQuery q;
  q.delta_vth = Volts{0.0};
  q.margin = Volts{5e-3};  // tight budget
  q.duty = 1.0;
  q.vdd = Volts{2.5};  // the paper's accelerated-stress overdrive regime
  q.temp = Celsius{110.0};
  q.horizon = Seconds{1e15};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_TRUE(outlook.crosses);
  EXPECT_GT(outlook.time_to_margin.value(), 0.0);
  EXPECT_LT(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, AlreadyPastMarginCrossesImmediately) {
  MarginQuery q;
  q.delta_vth = Volts{13e-3};
  q.margin = Volts{12e-3};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_TRUE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), 0.0);
}

TEST(MarginOutlook, GentleConditionIsRightCensoredAtHorizon) {
  MarginQuery q;
  q.delta_vth = Volts{1e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.1;
  q.vdd = Volts{0.9};  // mild use condition
  q.temp = Celsius{25.0};
  q.horizon = units::hours(24.0);  // short horizon: no way it crosses
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_FALSE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, MoreAgedDeviceCrossesSooner) {
  MarginQuery young;
  young.delta_vth = Volts{1e-3};
  young.margin = Volts{8e-3};
  young.duty = 1.0;
  young.vdd = Volts{2.5};
  young.temp = Celsius{110.0};
  young.horizon = Seconds{1e15};
  MarginQuery old = young;
  old.delta_vth = Volts{6e-3};
  const MarginOutlook young_outlook = margin_outlook(model(), young);
  const MarginOutlook old_outlook = margin_outlook(model(), old);
  ASSERT_TRUE(young_outlook.crosses);
  ASSERT_TRUE(old_outlook.crosses);
  EXPECT_LT(old_outlook.time_to_margin.value(),
            young_outlook.time_to_margin.value());
}

TEST(MarginOutlook, HigherDutyCrossesSooner) {
  MarginQuery busy;
  busy.delta_vth = Volts{2e-3};
  busy.margin = Volts{8e-3};
  busy.duty = 1.0;
  busy.vdd = Volts{2.5};
  busy.temp = Celsius{110.0};
  busy.horizon = Seconds{1e15};
  MarginQuery lazy = busy;
  lazy.duty = 0.25;
  const MarginOutlook busy_outlook = margin_outlook(model(), busy);
  const MarginOutlook lazy_outlook = margin_outlook(model(), lazy);
  ASSERT_TRUE(busy_outlook.crosses);
  if (lazy_outlook.crosses) {
    EXPECT_LT(busy_outlook.time_to_margin.value(),
              lazy_outlook.time_to_margin.value());
  }
}

TEST(MarginOutlook, AnswerIsBitDeterministic) {
  // Two fleet daemons (one chaos-ridden, one not) must answer a margin
  // query with identical bytes — which requires identical doubles here.
  MarginQuery q;
  q.delta_vth = Volts{3.3e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.61803398874989484;
  q.vdd = Volts{2.1};
  q.temp = Celsius{97.5};
  q.horizon = Seconds{1e14};
  const MarginOutlook a = margin_outlook(model(), q);
  const MarginOutlook b = margin_outlook(model(), q);
  EXPECT_EQ(a.crosses, b.crosses);
  EXPECT_EQ(a.time_to_margin.value(), b.time_to_margin.value());
}

TEST(MarginOutlook, MalformedQueriesThrow) {
  MarginQuery q;
  q.duty = 1.5;
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.duty = -0.1;
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.margin = Volts{-1e-3};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.horizon = Seconds{-1.0};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
  q = MarginQuery{};
  q.delta_vth = Volts{std::nan("")};
  EXPECT_THROW(margin_outlook(model(), q), std::invalid_argument);
}

TEST(MarginOutlook, ZeroDutyPureRecoveryNeverCrosses) {
  MarginQuery q;
  q.delta_vth = Volts{5e-3};
  q.margin = Volts{12e-3};
  q.duty = 0.0;  // pure recovery: no stress, no further growth
  q.horizon = Seconds{1e15};
  const MarginOutlook outlook = margin_outlook(model(), q);
  EXPECT_FALSE(outlook.crosses);
  EXPECT_EQ(outlook.time_to_margin.value(), q.horizon.value());
}

TEST(MarginOutlook, BatchedOverloadIsBitIdenticalToSingleCalls) {
  // A whole-shard query: many devices share a handful of schedules, which
  // is exactly the (condition, ceiling) hoisting case the overload exists
  // for.  The contract is bit-identity, not closeness.
  std::vector<MarginQuery> queries;
  const double duties[] = {0.0, 0.25, 0.25, 1.0};
  const double vdds[] = {1.2, 1.2, 2.5, 2.5};
  for (int i = 0; i < 64; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{1e-4 * static_cast<double>(i)};
    q.margin = Volts{12e-3};
    q.duty = duties[i % 4];
    q.vdd = Volts{vdds[i % 4]};
    q.temp = Celsius{i % 2 == 0 ? 80.0 : 110.0};
    q.horizon = Seconds{1e15};
    queries.push_back(q);
  }
  // Per-device schedules: 800 distinct ones, then 800 in runs of 16 equal
  // schedules, then 800 alternating query by query.  In the last two
  // blocks consecutive schedules differ in exactly one of (duty, vdd,
  // temp) (a Gray code over the three fields), so a hoisted law reused
  // across a change of any single field shows up as a mismatch.
  Rng rng(derive_seed(0x3A561Bu, 1));
  for (int i = 0; i < 2400; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{rng.uniform(0.0, 11e-3)};
    q.horizon = Seconds{1e15};
    if (i < 800) {
      q.duty = rng.uniform(0.0, 1.0);
      q.vdd = Volts{rng.uniform(0.5, 2.5)};
      q.temp = Celsius{rng.uniform(25.0, 125.0)};
    } else {
      const int step = i < 1600 ? i / 16 : i;
      const int gray = step ^ (step >> 1);
      q.duty = (gray & 1) != 0 ? 0.3 : 0.5;
      q.vdd = Volts{(gray & 2) != 0 ? 1.1 : 1.2};
      q.temp = Celsius{(gray & 4) != 0 ? 100.0 : 80.0};
    }
    queries.push_back(q);
  }
  const std::vector<MarginOutlook> batched = margin_outlook(model(), queries);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MarginOutlook solo = margin_outlook(model(), queries[i]);
    EXPECT_EQ(batched[i].crosses, solo.crosses) << "query " << i;
    EXPECT_EQ(batched[i].time_to_margin.value(),
              solo.time_to_margin.value())
        << "query " << i;
  }
}

// The projection as it was first written: 200 bisection steps, each one
// evaluating the stateless law through ClosedFormModel::stress_delta_vth.
// The production path hoists the condition into a bti::StressLaw and stops
// at the bisection's floating-point fixed point; it must return the same
// bits as this reference on every query.
namespace reference {

constexpr int kBisectIterations = 200;
constexpr double kMaxProjectSeconds = 1e19;

double bisect_first_reach(const bti::ClosedFormModel& model,
                          const bti::OperatingCondition& c, double target,
                          double hi) {
  double lo = 0.0;
  for (int i = 0; i < kBisectIterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (model.stress_delta_vth(Seconds{mid}, c) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

MarginOutlook margin_outlook(const bti::ClosedFormModel& model,
                             const MarginQuery& query) {
  if (query.delta_vth.value() >= query.margin.value()) {
    MarginOutlook outlook;
    outlook.crosses = true;
    outlook.time_to_margin = Seconds{0.0};
    return outlook;
  }
  const bti::OperatingCondition c =
      query.duty > 0.0 ? bti::ac_stress(query.vdd, query.temp, query.duty)
                       : bti::recovery(query.vdd, query.temp);
  const double ceiling = model.stress_delta_vth(Seconds{kMaxProjectSeconds}, c);
  MarginOutlook outlook;
  if (ceiling < query.margin.value() || ceiling < query.delta_vth.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  const double t0 = bisect_first_reach(model, c, query.delta_vth.value(),
                                       kMaxProjectSeconds);
  const double at_horizon =
      model.stress_delta_vth(Seconds{t0 + query.horizon.value()}, c);
  if (at_horizon < query.margin.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  const double t_cross = bisect_first_reach(model, c, query.margin.value(),
                                            t0 + query.horizon.value());
  outlook.crosses = true;
  outlook.time_to_margin = Seconds{std::max(0.0, t_cross - t0)};
  return outlook;
}

}  // namespace reference

/// Number of queries whose single-call or batched answer under `m` differs
/// from the reference in `crosses` or in any bit of `time_to_margin`.
int count_mismatches(const bti::ClosedFormModel& m,
                     const std::vector<MarginQuery>& queries) {
  const std::vector<MarginOutlook> batched = margin_outlook(m, queries);
  int mismatches = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const MarginOutlook want = reference::margin_outlook(m, queries[i]);
    const double want_t = want.time_to_margin.value();
    for (const MarginOutlook& got : {margin_outlook(m, queries[i]), batched[i]}) {
      const double got_t = got.time_to_margin.value();
      if (got.crosses != want.crosses ||
          std::memcmp(&got_t, &want_t, sizeof got_t) != 0) {
        if (++mismatches > 10) break;
        ADD_FAILURE() << "query " << i << ": delta_vth "
                      << queries[i].delta_vth.value() << " duty "
                      << queries[i].duty << " horizon "
                      << queries[i].horizon.value();
        break;
      }
    }
  }
  return mismatches;
}

int count_mismatches(const std::vector<MarginQuery>& queries) {
  return count_mismatches(model(), queries);
}

TEST(MarginOutlook, FixedPointBisectionMatchesReference) {
  constexpr double kMargin = 12e-3;
  constexpr double kTenYears = 10.0 * 365.25 * 24.0 * 3600.0;

  // Benchmark-like traffic: devices short of a 12 mV budget, nominal
  // supply, three chamber temperatures, a ten-year horizon.
  Rng rng(derive_seed(0x3A561Bu, 2));
  std::vector<MarginQuery> traffic;
  const double temps_c[] = {60.0, 80.0, 100.0};
  for (int i = 0; i < 20000; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{rng.uniform(0.0, 0.9 * kMargin)};
    q.margin = Volts{kMargin};
    q.duty = rng.uniform(0.05, 0.95);
    q.vdd = Volts{1.2};
    q.temp = Celsius{temps_c[rng.uniform_index(3)]};
    q.horizon = Seconds{kTenYears};
    traffic.push_back(q);
  }
  EXPECT_EQ(count_mismatches(traffic), 0);

  // Edge grid: zero and subnormal shifts, duties and horizons, a margin
  // one ulp above the shift, supplies below the capture threshold.
  std::vector<MarginQuery> edges;
  const double just_under = std::nextafter(kMargin, 0.0);
  const double shifts[] = {0.0, 5e-324, 1e-12, 6e-3, just_under};
  const double margins[] = {0.0, 1e-9, kMargin};
  const double duties[] = {0.0, 5e-324, 1e-9, 0.5, 1.0};
  const double vdds[] = {0.0, 0.59, 0.6, 1.2, 2.5};
  const double grid_temps_c[] = {-40.0, 25.0, 110.0, 150.0};
  const double horizons[] = {0.0, 5e-324, 1.0, kTenYears, 1e18};
  for (double shift : shifts) {
    for (double margin : margins) {
      for (double duty : duties) {
        for (double vdd : vdds) {
          for (double temp_c : grid_temps_c) {
            for (double horizon : horizons) {
              MarginQuery q;
              q.delta_vth = Volts{shift};
              q.margin = Volts{margin};
              q.duty = duty;
              q.vdd = Volts{vdd};
              q.temp = Celsius{temp_c};
              q.horizon = Seconds{horizon};
              edges.push_back(q);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(count_mismatches(edges), 0);

  // Hostile sweep: every scale-free field log-uniform over hundreds of
  // decades, so the bisection meets subnormal brackets and huge ones.
  std::vector<MarginQuery> hostile;
  for (int i = 0; i < 20000; ++i) {
    MarginQuery q;
    q.delta_vth = Volts{std::pow(10.0, rng.uniform(-320.0, -1.0))};
    q.margin = Volts{std::pow(10.0, rng.uniform(-320.0, 0.0))};
    q.duty = std::pow(10.0, rng.uniform(-320.0, 0.0));
    q.vdd = Volts{rng.uniform(0.0, 3.0)};
    q.temp = Celsius{rng.uniform(-50.0, 200.0)};
    q.horizon = Seconds{std::pow(10.0, rng.uniform(-320.0, 19.0))};
    hostile.push_back(q);
  }
  EXPECT_EQ(count_mismatches(hostile), 0);
}

TEST(MarginOutlook, BatchedOverloadValidatesEveryQueryUpFront) {
  MarginQuery good;
  MarginQuery bad;
  bad.duty = 1.5;
  // All-or-nothing: one malformed query rejects the whole batch.
  EXPECT_THROW(margin_outlook(model(), std::vector<MarginQuery>{good, bad}),
               std::invalid_argument);
  EXPECT_TRUE(margin_outlook(model(), std::vector<MarginQuery>{}).empty());
}

// --- The certified bracket's fallbacks --------------------------------
// The bisection skips the law outside a bracket it certifies around a
// root guess (margin.h).  Where no guess or no certificate is possible it
// evaluates every mid; each family below reaches that fallback and must
// still return the reference's bits.

bti::StressLaw law_of(const bti::ClosedFormModel& m, const MarginQuery& q) {
  return m.stress_law(q.duty > 0.0 ? bti::ac_stress(q.vdd, q.temp, q.duty)
                                   : bti::recovery(q.vdd, q.temp));
}

/// How many queries run their first bisection (for the current shift)
/// with no root guess: target, target/amp or the guess
/// tau * expm1(target/amp) / (duty * afc) is not a positive normal double
/// (margin.h's guard).
int unguessed_bisections(const bti::ClosedFormModel& m,
                         const std::vector<MarginQuery>& queries) {
  int n = 0;
  for (const MarginQuery& q : queries) {
    if (q.delta_vth.value() >= q.margin.value()) continue;
    const bti::StressLaw law = law_of(m, q);
    const double ceiling = law.delta_vth(Seconds{1e19});
    if (ceiling < q.margin.value() || ceiling < q.delta_vth.value()) continue;
    const double target = q.delta_vth.value();
    const double z = target / law.amp;
    const double r = law.tau.value() * std::expm1(z) / (law.duty * law.afc);
    const bool usable = std::isnormal(target) && std::isnormal(z) && z > 0.0 &&
                        std::isnormal(r) && r > 0.0;
    if (!usable) ++n;
  }
  return n;
}

constexpr double kTenYearsS = 10.0 * 365.25 * 24.0 * 3600.0;

MarginQuery query(double delta_vth, double margin, double duty, double vdd,
                  double temp_c, double horizon) {
  MarginQuery q;
  q.delta_vth = Volts{delta_vth};
  q.margin = Volts{margin};
  q.duty = duty;
  q.vdd = Volts{vdd};
  q.temp = Celsius{temp_c};
  q.horizon = Seconds{horizon};
  return q;
}

TEST(MarginCertificate, ZeroShiftFallsBackToTheFullLoop) {
  std::vector<MarginQuery> queries;
  for (double margin : {12e-3, 1e-9, 1e-300}) {
    for (double duty : {1e-9, 0.05, 0.5, 1.0}) {
      for (double vdd : {0.6, 1.2, 2.5}) {
        for (double temp_c : {-40.0, 25.0, 60.0, 80.0, 100.0, 150.0}) {
          for (double horizon : {0.0, 1.0, kTenYearsS, 1e18}) {
            queries.push_back(query(0.0, margin, duty, vdd, temp_c, horizon));
          }
        }
      }
    }
  }
  EXPECT_GT(unguessed_bisections(model(), queries), 100);
  EXPECT_EQ(count_mismatches(queries), 0);
}

TEST(MarginCertificate, TargetsPastExpm1OverflowFallBack) {
  // A capture factor near 1e304 makes t * duty * afc overflow inside the
  // projection window, so the law reaches targets whose guess needs
  // expm1(target/amp) with target/amp > 709.78, which overflows.  Ratios
  // between ~250 and 709 keep a finite guess but leave the bracket's ends
  // too close to the target to certify.
  bti::ClosedFormParameters physics;
  physics.capture_field_accel_per_v = 1000.0;
  const bti::ClosedFormModel m(physics);
  std::vector<MarginQuery> queries;
  for (double duty : {0.5, 1.0}) {
    for (double temp_c : {60.0, 80.0, 100.0}) {
      const double amp = law_of(m, query(0.0, 1.0, duty, 1.9, temp_c, 1.0)).amp;
      ASSERT_GT(amp, 0.0);
      for (double ratio : {300.0, 500.0, 700.0, 720.0, 1000.0, 1e4}) {
        for (double shift : {0.0, 0.5, 0.9, 0.99}) {
          for (double horizon : {1.0, 1e6, kTenYearsS, 1e18}) {
            queries.push_back(query(shift * ratio * amp, ratio * amp, duty,
                                    1.9, temp_c, horizon));
          }
        }
      }
    }
  }
  EXPECT_GT(unguessed_bisections(m, queries), 50);
  EXPECT_EQ(count_mismatches(m, queries), 0);
}

TEST(MarginCertificate, SubnormalDutiesAndTargetsFallBack) {
  const double tiny[] = {5e-324, 1e-310, 2.2250738585072009e-308,
                         2.2250738585072014e-308, 1e-300};
  std::vector<MarginQuery> queries;
  for (double duty : tiny) {
    for (double shift : {0.0, 5e-324, 1e-310, 1e-300}) {
      for (double margin : {1e-310, 1e-300, 1e-250, 12e-3}) {
        for (double temp_c : {25.0, 80.0, 150.0}) {
          for (double horizon : {1.0, kTenYearsS, 1e18}) {
            queries.push_back(
                query(shift, margin, duty, 1.2, temp_c, horizon));
            queries.push_back(
                query(shift, margin, 0.5, 1.2, temp_c, horizon * duty));
          }
        }
      }
    }
  }
  EXPECT_GT(unguessed_bisections(model(), queries), 50);
  EXPECT_EQ(count_mismatches(queries), 0);
}

TEST(MarginCertificate, RecoveryConditionsNeverBisect) {
  // afc == 0: zero duty is a recovery condition, and a supply below the
  // capture threshold does not stress; the law is 0 everywhere.
  std::vector<MarginQuery> queries;
  for (double duty : {0.0, 0.5}) {
    for (double vdd : {-1.0, 0.0, 0.3, 0.59}) {
      for (double shift : {0.0, 1e-3, 11e-3}) {
        for (double horizon : {0.0, 1.0, kTenYearsS, 1e18}) {
          queries.push_back(query(shift, 12e-3, duty, vdd, 80.0, horizon));
        }
      }
    }
  }
  const bti::ClosedFormModel m = model();
  for (const MarginQuery& q : queries) {
    ASSERT_EQ(law_of(m, q).afc, 0.0);
  }
  EXPECT_EQ(unguessed_bisections(m, queries), 0);  // nothing bisects
  EXPECT_EQ(count_mismatches(queries), 0);
}

TEST(MarginCertificate, HorizonsUpTo1e18MatchTheReference) {
  Rng rng(derive_seed(0xCE27u, 1));
  std::vector<MarginQuery> queries;
  for (int i = 0; i < 4000; ++i) {
    const double horizon = std::pow(10.0, rng.uniform(0.0, 18.0));
    queries.push_back(query(rng.uniform(0.0, 0.9 * 12e-3), 12e-3,
                            rng.uniform(0.05, 0.95), 1.2,
                            rng.uniform(25.0, 150.0), horizon));
  }
  for (double horizon : {1e17, 5e17, 1e18}) {
    queries.push_back(query(0.0, 12e-3, 0.5, 1.2, 80.0, horizon));
    queries.push_back(query(6e-3, 12e-3, 1.0, 2.5, 150.0, horizon));
  }
  EXPECT_EQ(count_mismatches(queries), 0);
}

/// One chamber temperature of the fleet benchmark per test, so the three
/// sweeps run side by side under `ctest -j`.
class FleetPriorSweep : public ::testing::TestWithParam<double> {};

TEST_P(FleetPriorSweep, EveryGenesisPriorMatchesTheReference) {
  // The 16384 device priors the fleet benchmark's daemon starts from
  // (benchmark seed 1) over a grid of duties spanning its mission range.
  const fleet::ServiceState genesis =
      fleet::ServiceState::genesis(16384, Volts{12e-3}, derive_seed(1, 0xDE5));
  std::vector<MarginQuery> queries;
  for (double duty : {0.05, 0.275, 0.5, 0.725, 0.95}) {
    for (const fleet::DeviceAging& device : genesis.devices) {
      queries.push_back(query(device.delta_vth.value(), 12e-3, duty, 1.2,
                              GetParam(), kTenYearsS));
    }
  }
  EXPECT_EQ(count_mismatches(queries), 0);
}

INSTANTIATE_TEST_SUITE_P(ChamberTemperatures, FleetPriorSweep,
                         ::testing::Values(60.0, 80.0, 100.0));

}  // namespace
}  // namespace ash::mc
