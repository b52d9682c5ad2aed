#include "ash/bti/batch_ensemble.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/bti/trap_ensemble.h"
#include "ash/util/random.h"

namespace ash::bti {
namespace {

// A schedule exercising every evolve path: recurring stress/recovery
// conditions (cache hits), a drifting-temperature stretch (every interval
// unique — the solo ensemble's transient path), measurement wakes with a
// different duty and dt, and a dt change on a cached condition.
struct Step {
  OperatingCondition condition;
  double dt_s;
};

std::vector<Step> mixed_schedule() {
  std::vector<Step> steps;
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  const auto recover = recovery(Volts{-0.3}, Celsius{110.0});
  const auto wake = ac_stress(Volts{1.2}, Celsius{110.0}, 0.5);
  for (int i = 0; i < 6; ++i) steps.push_back({stress, 60.0});
  steps.push_back({wake, 2.7});
  for (int i = 0; i < 4; ++i) steps.push_back({stress, 60.0});
  steps.push_back({stress, 1200.0});  // dt change on a cached condition
  // Drifting chamber: every step is a one-shot condition.
  for (int i = 0; i < 12; ++i) {
    OperatingCondition c = stress;
    c.temperature_k = c.temperature_k + Kelvin{0.013 * (i + 1)};
    steps.push_back({c, 60.0});
  }
  steps.push_back({wake, 2.7});
  for (int i = 0; i < 6; ++i) steps.push_back({recover, 600.0});
  for (int i = 0; i < 3; ++i) steps.push_back({stress, 60.0});
  return steps;
}

std::vector<BatchMemberSpec> distinct_seed_population(int n) {
  std::vector<BatchMemberSpec> specs;
  for (int m = 0; m < n; ++m) {
    specs.push_back({default_td_parameters(),
                     derive_seed(0xBA7C4, static_cast<std::uint64_t>(m))});
  }
  return specs;
}

// A homogeneous-kinetics population: one shared seed, per-member DeltaVth
// scale (the corner/mismatch axis) — the fleet-sweep shape that collapses
// to a single trap class.
std::vector<BatchMemberSpec> one_class_population(int n) {
  std::vector<BatchMemberSpec> specs;
  Rng scales(0x5CA1E5);
  for (int m = 0; m < n; ++m) {
    TdParameters p = default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
    specs.push_back({p, 0xF1EE7});
  }
  return specs;
}

void expect_bit_identical_trajectories(
    const std::vector<BatchMemberSpec>& specs) {
  std::vector<TrapEnsemble> solo;
  solo.reserve(specs.size());
  for (const auto& s : specs) solo.emplace_back(s.params, s.seed);
  BatchEnsemble batch(specs);

  int step_index = 0;
  for (const auto& step : mixed_schedule()) {
    batch.evolve(step.condition, Seconds{step.dt_s});
    for (std::size_t m = 0; m < solo.size(); ++m) {
      solo[m].evolve(step.condition, Seconds{step.dt_s});
    }
    for (std::size_t m = 0; m < solo.size(); ++m) {
      ASSERT_EQ(batch.delta_vth(static_cast<int>(m)), solo[m].delta_vth())
          << "member " << m << " diverged at step " << step_index;
    }
    ++step_index;
  }
  for (std::size_t m = 0; m < solo.size(); ++m) {
    ASSERT_EQ(batch.occupancies(static_cast<int>(m)), solo[m].occupancies())
        << "member " << m;
  }
}

// The satellite-2 acceptance assertion: exact mode is bit-for-bit equal to
// N independent TrapEnsemble runs for a seeded 64-chip population.
TEST(BatchEnsemble, ExactModeBitIdenticalDistinctSeeds64) {
  const auto specs = distinct_seed_population(64);
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.member_count(), 64);
  EXPECT_EQ(batch.class_count(), 64);  // distinct seeds: one class each
  expect_bit_identical_trajectories(specs);
}

TEST(BatchEnsemble, ExactModeBitIdenticalOneClass64) {
  const auto specs = one_class_population(64);
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.member_count(), 64);
  // Shared seed + shared kinetics constants: rates are computed once per
  // condition for the whole population.
  EXPECT_EQ(batch.class_count(), 1);
  expect_bit_identical_trajectories(specs);
}

// More recurring conditions than the 6-slot rate cache holds (solo and
// batch group alike), each applied three times in a row so both promote
// it, and the whole cycle run twice with two dts: the caches evict and
// refill slots that held another condition's arrays.
TEST(BatchEnsemble, RateCacheEvictionStaysBitIdentical) {
  const auto specs = one_class_population(8);
  TrapEnsemble solo(specs.front().params, specs.front().seed);
  BatchEnsemble single({specs.front()});
  BatchEnsemble batch(specs);
  ASSERT_EQ(batch.class_count(), 1);

  int step_index = 0;
  for (const double dt_s : {60.0, 450.0}) {
    for (int k = 0; k < 20; ++k) {
      const OperatingCondition c =
          k % 4 == 3 ? recovery(Volts{-0.05 * (k % 5)}, Celsius{25.0 + 5 * k})
                     : ac_stress(Volts{1.0 + 0.02 * k}, Celsius{25.0 + 5 * k},
                                 0.25 * (1 + k % 4));
      for (int r = 0; r < 3; ++r, ++step_index) {
        solo.evolve(c, Seconds{dt_s});
        single.evolve(c, Seconds{dt_s});
        batch.evolve(c, Seconds{dt_s});
        const auto occ = solo.occupancies();
        ASSERT_EQ(single.occupancies(0), occ) << "step " << step_index;
        ASSERT_EQ(single.delta_vth(0), solo.delta_vth()) << "step " << step_index;
        for (int m = 0; m < batch.member_count(); ++m) {
          ASSERT_EQ(batch.occupancies(m), occ)
              << "member " << m << " step " << step_index;
        }
      }
    }
  }
  ASSERT_EQ(batch.delta_vth(0), solo.delta_vth());
}

TEST(BatchEnsemble, ValidationMatchesSoloAndLeavesStateUntouched) {
  const auto specs = distinct_seed_population(4);
  BatchEnsemble batch(specs);
  const auto stress = dc_stress(Volts{1.2}, Celsius{110.0});
  batch.evolve(stress, Seconds{60.0});
  const auto before = batch.occupancies(2);
  const auto version = batch.state_version();

  EXPECT_THROW(batch.evolve(stress, Seconds{-1.0}), std::invalid_argument);
  OperatingCondition too_negative = stress;
  too_negative.voltage_v = Volts{-0.6};  // below min_safe_voltage_v
  EXPECT_THROW(batch.evolve(too_negative, Seconds{60.0}),
               std::invalid_argument);
  OperatingCondition too_hot = stress;
  too_hot.temperature_k = Kelvin{273.15 + 126.0};  // above max_safe_temp_k
  EXPECT_THROW(batch.evolve(too_hot, Seconds{60.0}), std::invalid_argument);

  // dt == 0 is a no-op, not an error — and not a state change.
  batch.evolve(stress, Seconds{0.0});
  EXPECT_EQ(batch.state_version(), version);
  EXPECT_EQ(batch.occupancies(2), before);
}

// Non-finite inputs throw before any state changes: each one would
// otherwise poison every trap (NaN passes every ordered comparison).
class BatchEnsembleNonFinite : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_.evolve(stress_, Seconds{60.0});
    before_ = batch_.occupancies(1);
    version_ = batch_.state_version();
  }
  void expect_rejected(const OperatingCondition& c, Seconds dt) {
    EXPECT_THROW(batch_.evolve(c, dt), std::invalid_argument);
    EXPECT_EQ(batch_.state_version(), version_);
    EXPECT_EQ(batch_.occupancies(1), before_);
  }
  static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  BatchEnsemble batch_{distinct_seed_population(3)};
  OperatingCondition stress_ = dc_stress(Volts{1.2}, Celsius{110.0});
  std::vector<double> before_;
  std::uint64_t version_ = 0;
};

TEST_F(BatchEnsembleNonFinite, NanDtThrows) {
  expect_rejected(stress_, Seconds{kNan});
}

TEST_F(BatchEnsembleNonFinite, NonFiniteVoltageThrows) {
  OperatingCondition c = stress_;
  c.voltage_v = Volts{kNan};
  expect_rejected(c, Seconds{60.0});
  c.voltage_v = Volts{kInf};
  expect_rejected(c, Seconds{60.0});
}

TEST_F(BatchEnsembleNonFinite, NonFiniteTemperatureThrows) {
  OperatingCondition c = stress_;
  c.temperature_k = Kelvin{kNan};
  expect_rejected(c, Seconds{60.0});
  c.temperature_k = Kelvin{-kInf};
  expect_rejected(c, Seconds{60.0});
}

TEST_F(BatchEnsembleNonFinite, NonFiniteDutyThrows) {
  OperatingCondition c = stress_;
  c.gate_stress_duty = kNan;
  expect_rejected(c, Seconds{60.0});
  c.gate_stress_duty = kInf;
  expect_rejected(c, Seconds{60.0});
}

TEST_F(BatchEnsembleNonFinite, InfiniteDtReachesEquilibrium) {
  TrapEnsemble solo(default_td_parameters(), derive_seed(0xBA7C4, 1));
  solo.evolve(stress_, Seconds{60.0});
  batch_.evolve(stress_, Seconds{kInf});
  solo.evolve(stress_, Seconds{kInf});
  EXPECT_EQ(batch_.occupancies(1), solo.occupancies());
  for (const double p : solo.occupancies()) EXPECT_TRUE(std::isfinite(p));
}

// Every per-member accessor refuses an index outside [0, member_count())
// and leaves the population untouched.
class BatchEnsembleMemberIndex : public ::testing::Test {
 protected:
  void SetUp() override {
    batch_.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{60.0});
    snapshot_ = batch_.delta_vth_all();
    version_ = batch_.state_version();
  }
  void TearDown() override {
    EXPECT_EQ(batch_.state_version(), version_);
    EXPECT_EQ(batch_.delta_vth_all(), snapshot_);
  }
  BatchEnsemble batch_{distinct_seed_population(3)};
  std::vector<double> snapshot_;
  std::uint64_t version_ = 0;
};

TEST_F(BatchEnsembleMemberIndex, DeltaVth) {
  EXPECT_THROW(batch_.delta_vth(3), std::out_of_range);
  EXPECT_THROW(batch_.delta_vth(-1), std::out_of_range);
}

TEST_F(BatchEnsembleMemberIndex, Occupancies) {
  EXPECT_THROW(batch_.occupancies(3), std::out_of_range);
  EXPECT_THROW(batch_.occupancies(-1), std::out_of_range);
}

TEST_F(BatchEnsembleMemberIndex, TrapCount) {
  EXPECT_THROW(batch_.trap_count(3), std::out_of_range);
  EXPECT_THROW(batch_.trap_count(-1), std::out_of_range);
}

TEST_F(BatchEnsembleMemberIndex, Parameters) {
  EXPECT_THROW(batch_.parameters(3), std::out_of_range);
  EXPECT_THROW(batch_.parameters(-1), std::out_of_range);
}

TEST_F(BatchEnsembleMemberIndex, SetOccupancies) {
  const std::vector<double> occ(
      static_cast<std::size_t>(batch_.trap_count(0)), 0.5);
  EXPECT_THROW(batch_.set_occupancies(3, occ), std::out_of_range);
  EXPECT_THROW(batch_.set_occupancies(-1, occ), std::out_of_range);
}

TEST(BatchEnsemble, SetOccupanciesRoundTripAndReset) {
  const auto specs = distinct_seed_population(3);
  BatchEnsemble batch(specs);
  batch.evolve(dc_stress(Volts{1.2}, Celsius{110.0}), Seconds{3600.0});
  const auto snapshot = batch.occupancies(1);
  const double shift = batch.delta_vth(1);

  batch.reset();
  EXPECT_EQ(batch.delta_vth(1), 0.0);

  batch.set_occupancies(1, snapshot);
  EXPECT_EQ(batch.occupancies(1), snapshot);
  EXPECT_EQ(batch.delta_vth(1), shift);

  EXPECT_THROW(batch.set_occupancies(0, std::vector<double>{0.5}),
               std::invalid_argument);
  auto bad = snapshot;
  bad[0] = 1.5;
  EXPECT_THROW(batch.set_occupancies(1, bad), std::invalid_argument);
}

TEST(BatchEnsemble, RejectsEmptyAndNullPopulations) {
  EXPECT_THROW(BatchEnsemble(std::vector<BatchMemberSpec>{}),
               std::invalid_argument);
}

TEST(BatchEnsemble, ClassGroupingSplitsOnKineticsChanges) {
  // Same seed but a kinetics field differs -> separate classes.
  std::vector<BatchMemberSpec> specs;
  specs.push_back({default_td_parameters(), 7});
  specs.push_back({default_td_parameters(), 7});
  TdParameters hot = default_td_parameters();
  hot.emission_ea_mean_ev += 0.01;
  specs.push_back({hot, 7});
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.class_count(), 2);
  EXPECT_EQ(batch.member_count(), 3);
}

// --- shared occupancy rows ------------------------------------------------
// A class keeps one occupancy row; `set_occupancies` splits a member off
// copy-on-write and `reset` merges the class again.  Every check below is
// bit for bit against solo TrapEnsemble runs over mixed_schedule().

std::vector<TrapEnsemble> solo_runs(const std::vector<BatchMemberSpec>& specs) {
  std::vector<TrapEnsemble> solo;
  solo.reserve(specs.size());
  for (const auto& s : specs) solo.emplace_back(s.params, s.seed);
  return solo;
}

// Every member's shift and occupancies against its solo run.  Odd steps
// read the whole population at once, even steps one member at a time, so
// both reductions are checked on fresh state.
void expect_members_match(const BatchEnsemble& batch,
                          const std::vector<TrapEnsemble>& solo, int step) {
  const bool whole = step % 2 != 0;
  const std::vector<double> all =
      whole ? batch.delta_vth_all() : std::vector<double>{};
  for (std::size_t m = 0; m < solo.size(); ++m) {
    const int member = static_cast<int>(m);
    const double shift = whole ? all[m] : batch.delta_vth(member);
    ASSERT_EQ(shift, solo[m].delta_vth())
        << "member " << m << " diverged at step " << step;
    ASSERT_EQ(batch.occupancies(member), solo[m].occupancies())
        << "member " << m << " diverged at step " << step;
  }
}

// Runs steps [from, to) of mixed_schedule() on the batch and every solo.
void run_steps(BatchEnsemble& batch, std::vector<TrapEnsemble>& solo,
               int from, int to) {
  const auto steps = mixed_schedule();
  for (int i = from; i < to; ++i) {
    const Step& step = steps[static_cast<std::size_t>(i)];
    batch.evolve(step.condition, Seconds{step.dt_s});
    for (auto& e : solo) e.evolve(step.condition, Seconds{step.dt_s});
    expect_members_match(batch, solo, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Occupancies no classmate reaches under mixed_schedule(): a solo run of
// `spec` under a hotter, longer stress.
std::vector<double> foreign_occupancies(const BatchMemberSpec& spec) {
  TrapEnsemble donor(spec.params, spec.seed);
  donor.evolve(dc_stress(Volts{1.3}, Celsius{120.0}), Seconds{7200.0});
  return donor.occupancies();
}

constexpr int kSplitStep = 12;  // mid-schedule, with cached conditions
constexpr int kSplitMember = 17;

// Splits kSplitMember off a 64-member one-class population at kSplitStep,
// restoring its solo run with the same vector, then runs the rest.
struct SplitPopulation {
  std::vector<BatchMemberSpec> specs = one_class_population(64);
  BatchEnsemble batch{specs};
  std::vector<TrapEnsemble> solo = solo_runs(specs);

  void split() {
    const int steps = static_cast<int>(mixed_schedule().size());
    run_steps(batch, solo, 0, kSplitStep);
    const auto occ = foreign_occupancies(specs[kSplitMember]);
    batch.set_occupancies(kSplitMember, occ);
    solo[kSplitMember].set_occupancies(occ);
    run_steps(batch, solo, kSplitStep, steps);
  }
};

TEST(BatchEnsembleSharedRows, SetOccupanciesLeavesClassmatesOnTheirSoloRuns) {
  SplitPopulation pop;
  ASSERT_EQ(pop.batch.group_count(), 1);
  ASSERT_NO_FATAL_FAILURE(pop.split());
  EXPECT_EQ(pop.batch.class_count(), 1);
  EXPECT_EQ(pop.batch.group_count(), 2);
  for (int m = 0; m < pop.batch.member_count(); ++m) {
    if (m == kSplitMember) continue;
    EXPECT_EQ(pop.batch.occupancies(m),
              pop.solo[static_cast<std::size_t>(m)].occupancies())
        << "member " << m;
  }
}

TEST(BatchEnsembleSharedRows, SplitMemberMatchesRestoredSolo) {
  SplitPopulation pop;
  ASSERT_NO_FATAL_FAILURE(pop.split());
  const TrapEnsemble& restored = pop.solo[kSplitMember];
  EXPECT_EQ(pop.batch.occupancies(kSplitMember), restored.occupancies());
  EXPECT_EQ(pop.batch.delta_vth(kSplitMember), restored.delta_vth());
  EXPECT_NE(pop.batch.occupancies(kSplitMember), pop.batch.occupancies(0));

  // Restoring the now-private member again rewrites its own row only.
  const auto occ = pop.batch.occupancies(0);
  pop.batch.set_occupancies(kSplitMember, occ);
  TrapEnsemble rewound(pop.specs[kSplitMember].params,
                       pop.specs[kSplitMember].seed);
  rewound.set_occupancies(occ);
  EXPECT_EQ(pop.batch.group_count(), 2);
  EXPECT_EQ(pop.batch.delta_vth(kSplitMember), rewound.delta_vth());
  EXPECT_EQ(pop.batch.occupancies(0), occ);
}

TEST(BatchEnsembleSharedRows, ResetAfterDivergenceMergesEachClass) {
  SplitPopulation pop;
  ASSERT_NO_FATAL_FAILURE(pop.split());
  ASSERT_EQ(pop.batch.group_count(), 2);
  pop.batch.reset();
  EXPECT_EQ(pop.batch.group_count(), 1);
  for (auto& e : pop.solo) e.reset();
  expect_members_match(pop.batch, pop.solo, 0);
  run_steps(pop.batch, pop.solo, 0,
            static_cast<int>(mixed_schedule().size()));
}

TEST(BatchEnsembleSharedRows, FourClassesOfSixteenBitIdentical) {
  std::vector<BatchMemberSpec> specs;
  for (int c = 0; c < 4; ++c) {
    for (const auto& spec : one_class_population(16)) {
      specs.push_back(
          {spec.params, derive_seed(0xC1A55, static_cast<std::uint64_t>(c))});
    }
  }
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.class_count(), 4);
  EXPECT_EQ(batch.group_count(), 4);
  auto solo = solo_runs(specs);
  run_steps(batch, solo, 0, static_cast<int>(mixed_schedule().size()));
}


// --- one scalar per member ---------------------------------------------------
// A member is its mean; its class (the seed and the bits of every other
// TdParameters field) is drawn once.

// Classes in spec order A, B, A, B, ... (plus a third every fifth member),
// each member with its own corner scale.
std::vector<BatchMemberSpec> interleaved_population(int n) {
  std::vector<BatchMemberSpec> specs;
  const auto scaled = one_class_population(n);
  for (int m = 0; m < n; ++m) {
    const std::uint64_t cls = m % 5 == 4 ? 2 : static_cast<std::uint64_t>(m % 2);
    specs.push_back({scaled[static_cast<std::size_t>(m)].params,
                     derive_seed(0x1E7E4, cls)});
  }
  return specs;
}

TEST(BatchEnsembleScalarMembers, InterleavedClassesBitIdentical) {
  const auto specs = interleaved_population(40);
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.class_count(), 3);
  EXPECT_EQ(batch.group_count(), 3);
  auto solo = solo_runs(specs);
  run_steps(batch, solo, 0, static_cast<int>(mixed_schedule().size()));
}

// The message of the solo constructor for `params`, or "" when it builds.
std::string solo_error(const TdParameters& params) {
  try {
    const TrapEnsemble solo(params, 3);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BatchEnsembleScalarMembers, InvalidMeanThrowsLikeSolo) {
  for (const double mean :
       {0.0, -765e-6, std::numeric_limits<double>::quiet_NaN()}) {
    auto specs = interleaved_population(8);
    specs[5].params.delta_vth_mean_v = Volts{mean};
    const std::string want = solo_error(specs[5].params);
    ASSERT_FALSE(want.empty()) << "mean " << mean;
    try {
      const BatchEnsemble batch(specs);
      ADD_FAILURE() << "mean " << mean << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), want) << "mean " << mean;
    }
    BatchPopulation pop{{{default_td_parameters(), 3}}, {}, {}};
    for (int m = 0; m < 4; ++m) {
      pop.means.push_back(m == 2 ? Volts{mean} : Volts{765e-6});
      pop.trap_class.push_back(0);
    }
    try {
      const BatchEnsemble batch(pop);
      ADD_FAILURE() << "mean " << mean << " was accepted in compact form";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), want) << "mean " << mean;
    }
  }
}

TEST(BatchEnsembleScalarMembers, CompactFormRejectsMalformedPopulations) {
  const BatchMemberSpec cls{default_td_parameters(), 3};
  const Volts mean{765e-6};
  EXPECT_THROW(BatchEnsemble(BatchPopulation{{cls}, {}, {}}),
               std::invalid_argument);
  EXPECT_THROW(BatchEnsemble(BatchPopulation{{cls}, {mean, mean}, {0}}),
               std::invalid_argument);
  EXPECT_THROW(BatchEnsemble(BatchPopulation{{cls}, {mean}, {1}}),
               std::invalid_argument);
  EXPECT_THROW(BatchEnsemble(BatchPopulation{{cls}, {mean}, {-1}}),
               std::invalid_argument);
}

TEST(BatchEnsembleScalarMembers, CompactFormMatchesSpecForm) {
  const auto specs = interleaved_population(37);
  // The same population in compact form, with the classes listed in
  // another order than the spec form finds them.
  BatchPopulation pop;
  for (const std::uint64_t cls : {2, 0, 1}) {
    TdParameters p = default_td_parameters();
    p.delta_vth_mean_v = Volts{0.0};  // unused: each member has its own
    pop.classes.push_back({p, derive_seed(0x1E7E4, cls)});
  }
  for (const BatchMemberSpec& spec : specs) {
    int c = 0;
    while (pop.classes[static_cast<std::size_t>(c)].seed != spec.seed) ++c;
    pop.means.push_back(spec.params.delta_vth_mean_v);
    pop.trap_class.push_back(c);
  }
  BatchEnsemble by_spec(specs);
  BatchEnsemble compact(pop);
  EXPECT_EQ(compact.class_count(), by_spec.class_count());
  int step_index = 0;
  for (const Step& step : mixed_schedule()) {
    by_spec.evolve(step.condition, Seconds{step.dt_s});
    compact.evolve(step.condition, Seconds{step.dt_s});
    const std::vector<double> a = by_spec.delta_vth_all();
    const std::vector<double> b = compact.delta_vth_all();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "step " << step_index;
    ++step_index;
  }
}

TEST(BatchEnsembleScalarMembers, ParametersCarryTheMembersOwnMean) {
  const auto specs = interleaved_population(12);
  const BatchEnsemble batch(specs);
  for (int m = 0; m < batch.member_count(); ++m) {
    const TdParameters p = batch.parameters(m);
    EXPECT_EQ(p, specs[static_cast<std::size_t>(m)].params) << "member " << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(p.delta_vth_mean_v.value()),
              std::bit_cast<std::uint64_t>(
                  specs[static_cast<std::size_t>(m)]
                      .params.delta_vth_mean_v.value()))
        << "member " << m;
  }
}

// Every TdParameters field but the mean is part of the class key: nudging
// any one of them (to a value that still validates) makes a second class.
TEST(BatchEnsembleScalarMembers, EveryKineticsFieldSplitsClasses) {
  using Nudge = void (*)(TdParameters&);
  const Nudge nudges[] = {
      [](TdParameters& p) { p.traps_per_device += 1; },
      [](TdParameters& p) { p.tau_capture_min_s = p.tau_capture_min_s * 1.01; },
      [](TdParameters& p) { p.tau_capture_max_s = p.tau_capture_max_s * 1.01; },
      [](TdParameters& p) { p.emission_ratio_log10_mu += 0.01; },
      [](TdParameters& p) { p.emission_ratio_log10_sigma += 0.01; },
      [](TdParameters& p) { p.permanent_fraction += 0.01; },
      [](TdParameters& p) { p.stress_ref_voltage_v = p.stress_ref_voltage_v * 1.01; },
      [](TdParameters& p) { p.stress_ref_temp_k = p.stress_ref_temp_k + Kelvin{1.0}; },
      [](TdParameters& p) { p.capture_field_accel_per_v += 0.01; },
      [](TdParameters& p) { p.capture_ea_mean_ev += 0.01; },
      [](TdParameters& p) { p.capture_ea_sigma_ev += 0.01; },
      [](TdParameters& p) {
        p.capture_threshold_voltage_v = p.capture_threshold_voltage_v * 1.01;
      },
      [](TdParameters& p) { p.amp_prefactor *= 1.01; },
      [](TdParameters& p) { p.amp_e0_ev += 0.01; },
      [](TdParameters& p) { p.amp_b_ev_per_v += 0.01; },
      [](TdParameters& p) { p.recovery_ref_voltage_v = Volts{0.01}; },
      [](TdParameters& p) { p.recovery_ref_temp_k = p.recovery_ref_temp_k + Kelvin{1.0}; },
      [](TdParameters& p) { p.emission_ea_mean_ev += 0.01; },
      [](TdParameters& p) { p.emission_ea_sigma_ev += 0.01; },
      [](TdParameters& p) { p.emission_neg_bias_accel_per_v += 0.01; },
      [](TdParameters& p) { p.min_safe_voltage_v = p.min_safe_voltage_v * 0.99; },
      [](TdParameters& p) { p.max_safe_temp_k = p.max_safe_temp_k + Kelvin{1.0}; },
  };
  for (std::size_t f = 0; f < std::size(nudges); ++f) {
    TdParameters other = default_td_parameters();
    nudges[f](other);
    ASSERT_NE(other, default_td_parameters()) << "nudge " << f;
    const BatchEnsemble batch({{default_td_parameters(), 7}, {other, 7}});
    EXPECT_EQ(batch.class_count(), 2) << "nudge " << f;
  }
  // Only the mean differs: one class.
  TdParameters scaled = default_td_parameters();
  scaled.delta_vth_mean_v = scaled.delta_vth_mean_v * 1.3;
  EXPECT_EQ(BatchEnsemble({{default_td_parameters(), 7}, {scaled, 7}})
                .class_count(),
            1);
}

// +0.0 and -0.0 compare equal but are different bits, and a rate law may
// tell them apart: they key different classes.
TEST(BatchEnsembleScalarMembers, SignedZeroFieldsKeyDifferentClasses) {
  TdParameters plus = default_td_parameters();
  plus.recovery_ref_voltage_v = Volts{0.0};
  TdParameters minus = plus;
  minus.recovery_ref_voltage_v = Volts{-0.0};
  ASSERT_EQ(plus, minus);
  const std::vector<BatchMemberSpec> specs = {{plus, 7}, {minus, 7}, {plus, 7}};
  BatchEnsemble batch(specs);
  EXPECT_EQ(batch.class_count(), 2);
  auto solo = solo_runs(specs);
  run_steps(batch, solo, 0, static_cast<int>(mixed_schedule().size()));
}

}  // namespace
}  // namespace ash::bti
