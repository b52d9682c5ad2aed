#include "ash/fleet/supervisor.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/obs/metrics.h"
#include "ash/tb/experiment_runner.h"
#include "ash/util/crc32.h"

namespace ash::fleet {
namespace {

/// Per-test private checkpoint directories (one per fleet run, so chaos
/// debris from one run never leaks into another).
class FleetSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_fleet_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    root_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + root_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  /// A fresh subdirectory for one fleet run.
  std::string fresh_dir(const std::string& name) {
    const std::string dir = root_ + "/" + name;
    const std::string cmd = "mkdir -p '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
  }
  std::string root_;
};

/// Small chips keep the campaigns fast; supervision logic is size-blind.
constexpr int kStages = 11;
constexpr std::uint64_t kSeed = 7;

FleetConfig fast_config(const std::string& dir) {
  FleetConfig config;
  config.checkpoint_dir = dir;
  config.backoff_initial_ms = 1;
  config.backoff_max_ms = 20;
  return config;
}

TEST_F(FleetSupervisorTest, CleanFleetCompletesAllShardsClean) {
  FleetSupervisor supervisor(fast_config(fresh_dir("clean")),
                             paper_fleet_shards(3, kSeed, kStages));
  const FleetReport report = supervisor.run();
  ASSERT_EQ(report.shards.size(), 3u);
  EXPECT_TRUE(report.all_completed());
  for (const auto& s : report.shards) {
    EXPECT_EQ(s.quality, ShardQuality::kClean);
    EXPECT_TRUE(s.completed);
    EXPECT_EQ(s.restarts, 0);
    EXPECT_EQ(s.phases_done, s.phases_total);
    EXPECT_TRUE(s.have_state);
    EXPECT_GT(s.state.log.size(), 0u);
  }
  EXPECT_EQ(report.stats.workers_launched, 3);
  EXPECT_EQ(report.stats.worker_crashes, 0);
  EXPECT_EQ(report.stats.restarts, 0);
  EXPECT_EQ(report.stats.quarantined, 0);
}

TEST_F(FleetSupervisorTest, PayloadHasVersionedHeaderAndStableCrc) {
  FleetSupervisor supervisor(fast_config(fresh_dir("payload")),
                             paper_fleet_shards(2, kSeed, kStages));
  const FleetReport report = supervisor.run();
  const std::string payload = report.payload();
  EXPECT_EQ(payload.rfind("ash-fleet-report v1\n", 0), 0u);
  EXPECT_NE(payload.find("shards 2\n"), std::string::npos);
  EXPECT_NE(payload.find("shard 0 "), std::string::npos);
  EXPECT_EQ(report.payload_crc(), util::crc32(payload));
  // render() carries the human summary, including supervision tallies.
  EXPECT_NE(report.render().find("fleet supervision"), std::string::npos);
}

// The tentpole acceptance test: a chaos run that SIGKILLs every worker at
// least once AND corrupts snapshot files converges to a final report
// payload bit-identical to an undisturbed run of the same seed.
TEST_F(FleetSupervisorTest, TornChaosConvergesToUndisturbedPayload) {
  FleetSupervisor clean(fast_config(fresh_dir("undisturbed")),
                        paper_fleet_shards(3, kSeed, kStages));
  const FleetReport undisturbed = clean.run();

  FleetConfig chaos_config = fast_config(fresh_dir("torn"));
  chaos_config.chaos = FleetFaultPlan::torn();
  FleetSupervisor chaotic(chaos_config, paper_fleet_shards(3, kSeed, kStages));
  const FleetReport disturbed = chaotic.run();

  // Every worker was SIGKILLed at least once...
  for (const auto& s : disturbed.shards) {
    EXPECT_GE(s.restarts, 1) << "shard " << s.shard_id << " was never killed";
    EXPECT_EQ(s.quality, ShardQuality::kRecovered);
    EXPECT_TRUE(s.completed);
  }
  EXPECT_GE(disturbed.stats.worker_crashes, 3);
  // ...at least one snapshot file was corrupted and stepped over...
  EXPECT_GE(disturbed.stats.corrupt_snapshots_skipped, 1);
  // ...and the payload is bit-identical to the undisturbed run.
  EXPECT_EQ(disturbed.payload(), undisturbed.payload());
  EXPECT_EQ(disturbed.payload_crc(), undisturbed.payload_crc());
}

TEST_F(FleetSupervisorTest, HungWorkersAreKilledAndRecovered) {
  FleetConfig config = fast_config(fresh_dir("stall"));
  config.chaos = FleetFaultPlan::full();
  // Workers heartbeat once per phase checkpoint, so the deadline must
  // clear the worst-case wall time of ONE phase on a loaded CI box —
  // sustained sub-deadline phases would starve every attempt into
  // quarantine.  Stretch the stall instead of tightening the deadline,
  // and budget strikes generously: spurious timeout kills are harmless
  // for the payload, only quarantine would change it.
  config.chaos.stall_ms = 3000.0;
  config.heartbeat_timeout_ms = 1500;
  config.max_restarts = 25;
  FleetSupervisor supervisor(config, paper_fleet_shards(2, kSeed, kStages));
  const FleetReport report = supervisor.run();
  EXPECT_GE(report.stats.heartbeat_timeouts, 2);
  EXPECT_TRUE(report.all_completed());

  FleetSupervisor clean(fast_config(fresh_dir("stall_ref")),
                        paper_fleet_shards(2, kSeed, kStages));
  EXPECT_EQ(report.payload(), clean.run().payload());
}

TEST_F(FleetSupervisorTest, RestartsRideCappedBackoff) {
  FleetConfig config = fast_config(fresh_dir("backoff"));
  config.chaos = FleetFaultPlan::kill();
  FleetSupervisor supervisor(config, paper_fleet_shards(2, kSeed, kStages));
  const FleetReport report = supervisor.run();
  EXPECT_GE(report.stats.restarts, 2);
  EXPECT_EQ(report.stats.backoffs, report.stats.restarts);
  EXPECT_GT(report.stats.backoff_total_ms, 0.0);
}

TEST_F(FleetSupervisorTest, RelentlessKillsEndInQuarantineWithPartialState) {
  FleetConfig config = fast_config(fresh_dir("quarantine"));
  config.max_restarts = 1;
  config.chaos.kill_attempts = 99;  // every attempt dies
  config.chaos.min_phases_before_kill = 1;
  config.chaos.max_phases_before_kill = 1;
  FleetSupervisor supervisor(config, paper_fleet_shards(2, kSeed, kStages));
  const FleetReport report = supervisor.run();

  // Graceful degradation: the report ships anyway, flagged.
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_FALSE(report.all_completed());
  EXPECT_EQ(report.stats.quarantined, 2);
  for (const auto& s : report.shards) {
    EXPECT_EQ(s.quality, ShardQuality::kQuarantined);
    // Two attempts, one phase each: the durable store preserved them.
    EXPECT_TRUE(s.have_state);
    EXPECT_EQ(s.phases_done, 2);
  }
  // Shard 1 runs the 3-phase chip-2 case: partial by construction.
  EXPECT_FALSE(report.shards[1].completed);
  EXPECT_LT(report.shards[1].phases_done, report.shards[1].phases_total);
}

TEST_F(FleetSupervisorTest, SecondRunResumesFromDurableState) {
  // Kill the whole fleet (here: a completed run standing in for one) and
  // run the same command again over the same directory: workers load the
  // newest snapshots instead of recomputing, and the payload is identical.
  const std::string dir = fresh_dir("resume");
  FleetSupervisor first(fast_config(dir), paper_fleet_shards(2, kSeed, kStages));
  const FleetReport before = first.run();

  FleetSupervisor second(fast_config(dir), paper_fleet_shards(2, kSeed, kStages));
  const FleetReport after = second.run();
  EXPECT_EQ(after.stats.workers_launched, 2);
  EXPECT_EQ(after.stats.restarts, 0);
  EXPECT_EQ(after.payload(), before.payload());
}

TEST_F(FleetSupervisorTest, ChipVariationPopulationMatchesThreadedRun) {
  // Ablation F's 20-chip population, one forked worker per chip with
  // durable checkpoints, must reproduce the sample logs of the in-process
  // run bit for bit: `ash_lab reproduce` prints crc32 28983703 for those.
  std::vector<ShardSpec> shards;
  for (const fpga::ChipConfig& chip : tb::variation_population()) {
    ShardSpec spec;
    spec.shard_id = static_cast<int>(shards.size());
    spec.chip = chip;
    spec.test_case = tb::variation_case(chip.chip_id);
    shards.push_back(spec);
  }
  FleetConfig config = fast_config(fresh_dir("variation"));
  // Workers beat only at phase boundaries, and a 24 h stress phase of 20
  // concurrent workers takes far longer than 5 s under a sanitizer.
  config.heartbeat_timeout_ms = 120000;
  const FleetReport report = FleetSupervisor(config, shards).run();
  ASSERT_TRUE(report.all_completed());
  std::ostringstream csv;
  for (const ShardOutcome& shard : report.shards) {
    shard.state.log.write_csv(csv);
  }
  EXPECT_EQ(util::crc32(csv.str()), 0x28983703u);
}

TEST_F(FleetSupervisorTest, StatsPublishMirrorsTheStruct) {
  SupervisionStats stats;
  stats.workers_launched = 5;
  stats.worker_crashes = 2;
  stats.heartbeat_timeouts = 1;
  stats.restarts = 2;
  stats.backoffs = 2;
  stats.backoff_total_ms = 12.5;
  stats.quarantined = 1;
  stats.corrupt_snapshots_skipped = 3;
  obs::Registry registry;
  stats.publish(registry);
  EXPECT_EQ(registry.counter("fleet.workers_launched").value(), 5u);
  EXPECT_EQ(registry.counter("fleet.worker_crashes").value(), 2u);
  EXPECT_EQ(registry.counter("fleet.heartbeat_timeouts").value(), 1u);
  EXPECT_EQ(registry.counter("fleet.restarts").value(), 2u);
  EXPECT_EQ(registry.counter("fleet.quarantined").value(), 1u);
  EXPECT_EQ(registry.counter("fleet.corrupt_snapshots_skipped").value(), 3u);
  EXPECT_DOUBLE_EQ(registry.gauge("fleet.backoff_total_ms").value(), 12.5);
}

TEST_F(FleetSupervisorTest, ConstructorRejectsBadFleets) {
  const std::string dir = fresh_dir("validate");
  auto shards = paper_fleet_shards(2, kSeed, kStages);
  shards[1].shard_id = shards[0].shard_id;
  EXPECT_THROW(FleetSupervisor(fast_config(dir), shards),
               std::invalid_argument);
  EXPECT_THROW(FleetSupervisor(fast_config(dir), {}), std::invalid_argument);
  EXPECT_THROW(FleetSupervisor(fast_config(dir + "/missing"),
                               paper_fleet_shards(1, kSeed, kStages)),
               std::runtime_error);
}

TEST_F(FleetSupervisorTest, ImpossibleRingIsRefusedBeforeAnyFork) {
  // A chip whose ring cannot oscillate would crash every worker forked
  // for it, restart after restart, until quarantine.  The constructor
  // refuses it instead, so run() — the only forking call — never starts.
  const std::string dir = fresh_dir("stages");
  for (const int stages : {4, 2, 1, 0, -3}) {
    EXPECT_THROW(FleetSupervisor(fast_config(dir),
                                 paper_fleet_shards(2, kSeed, stages)),
                 std::invalid_argument)
        << stages;
  }
  // One bad shard among good ones is enough.
  auto shards = paper_fleet_shards(3, kSeed, kStages);
  shards[2].chip.ro_stages = 74;
  EXPECT_THROW(FleetSupervisor(fast_config(dir), shards),
               std::invalid_argument);
  EXPECT_NO_THROW(
      FleetSupervisor(fast_config(dir), paper_fleet_shards(1, kSeed, 3)));
  EXPECT_TRUE(std::filesystem::is_empty(dir))
      << "a refused fleet wrote into its checkpoint dir";
}

TEST(PaperFleetShards, CyclesThePaperCampaign) {
  const auto shards = paper_fleet_shards(7, 123, 11);
  ASSERT_EQ(shards.size(), 7u);
  // Chip ids cycle through the five paper cases.
  EXPECT_EQ(shards[0].chip.chip_id, shards[5].chip.chip_id);
  EXPECT_EQ(shards[1].chip.chip_id, shards[6].chip.chip_id);
  EXPECT_EQ(shards[0].test_case.name, shards[5].test_case.name);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].shard_id, static_cast<int>(i));
    EXPECT_EQ(shards[i].chip.ro_stages, 11);
    for (std::size_t j = i + 1; j < shards.size(); ++j) {
      // Every shard is a distinct physical chip (its own seed), even when
      // it repeats a paper case.
      EXPECT_NE(shards[i].chip.seed, shards[j].chip.seed);
    }
  }
}

TEST(ShardQualityNames, AreStable) {
  EXPECT_STREQ(to_string(ShardQuality::kClean), "clean");
  EXPECT_STREQ(to_string(ShardQuality::kRecovered), "recovered");
  EXPECT_STREQ(to_string(ShardQuality::kQuarantined), "quarantined");
}

}  // namespace
}  // namespace ash::fleet
