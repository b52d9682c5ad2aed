#pragma once

/// \file supervisor.h
/// Supervised multi-process shard runner — the `ash_fleet` seed.
///
/// The fleet manager of ROADMAP item 1 tracks aging for millions of
/// devices; before it can be a service it must be a *survivor*.  This
/// layer shards a multi-chip campaign across forked worker processes and
/// keeps the campaign alive through worker crashes, hangs and checkpoint
/// corruption:
///
///   * each worker advances its shard one phase at a time, persisting a
///     durable CRC-framed snapshot (ash/fleet/checkpoint_store.h) after
///     every phase and writing a heartbeat byte down a pipe;
///   * the supervisor polls heartbeats against a deadline; a dead worker
///     (nonzero exit, signal) or a hung one (missed deadline → SIGKILL)
///     earns the shard a strike and a restart from the newest snapshot
///     that still verifies, behind capped exponential backoff;
///   * a shard that keeps striking is quarantined after `max_restarts`
///     failures — the fleet report still ships, carrying the shard's last
///     valid partial state with a quality flag (mirroring the per-sample
///     quality flags of `tb::DataLog`) instead of failing the whole run.
///
/// Determinism contract: the *payload* of the fleet report (per-shard
/// completion, phase counts, fault tallies and sample logs) is a pure
/// function of (shard specs, runner config, chaos plan) — campaign resume
/// is bit-exact, so any interleaving of crashes and restarts converges to
/// the same bytes.  Host-time effects (who got restarted when, how long
/// backoffs waited) live in `SupervisionStats`, outside the payload.
/// `ctest -L faults` pins both halves of that contract.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/fault.h"
#include "ash/fpga/chip.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"

namespace ash::obs {
class Registry;
}  // namespace ash::obs

namespace ash::fleet {

/// One shard: a chip (construction parameters are the schema) plus the
/// campaign schedule to run on it.
struct ShardSpec {
  int shard_id = 0;
  fpga::ChipConfig chip;
  tb::TestCase test_case;
};

/// Supervision policy.  Timings are host-time milliseconds — process
/// supervision is the one layer that legitimately lives on the wall
/// clock; nothing here feeds back into the simulated physics.
struct FleetConfig {
  /// Directory for durable snapshots (must exist and be writable).
  std::string checkpoint_dir;
  /// Runner configuration shared by every shard (instrument streams
  /// derive per (seed, phase, attempt), so sharing is bit-safe).
  tb::RunnerConfig runner;
  /// Phases a worker advances between durable snapshots (>= 1).
  int phases_per_checkpoint = 1;
  /// Restarts a shard may consume before quarantine.
  int max_restarts = 3;
  /// Heartbeat deadline: a worker silent this long is declared hung.
  int heartbeat_timeout_ms = 5000;
  /// Capped exponential restart backoff.
  int backoff_initial_ms = 10;
  double backoff_multiplier = 2.0;
  int backoff_max_ms = 500;
  /// Process-chaos scenario injected into the workers (default: none).
  FleetFaultPlan chaos;
};

/// Shard-level quality flag, the process analog of tb::SampleQuality:
/// degradation is reported, never silently dropped.
enum class ShardQuality {
  kClean = 0,      ///< completed, zero restarts
  kRecovered = 1,  ///< completed after >= 1 restart from a snapshot
  kQuarantined = 2,  ///< strikes exhausted; carries last valid state only
};

const char* to_string(ShardQuality quality);

/// End state of one shard.
struct ShardOutcome {
  int shard_id = 0;
  int chip_id = 0;
  ShardQuality quality = ShardQuality::kClean;
  bool completed = false;  ///< campaign ran every phase
  int restarts = 0;
  int phases_done = 0;
  int phases_total = 0;
  int corrupt_snapshots_skipped = 0;  ///< invalid files recovery stepped over
  /// Last durable state (final when completed, newest valid otherwise).
  /// Meaningless when have_state is false (no snapshot ever verified).
  tb::CampaignCheckpoint state;
  bool have_state = false;
};

/// Host-time supervision tallies — everything timing-dependent lives
/// here, outside the deterministic payload.
struct SupervisionStats {
  int workers_launched = 0;
  int worker_crashes = 0;       ///< nonzero exit or death by signal
  int heartbeat_timeouts = 0;   ///< hung workers the supervisor SIGKILLed
  int restarts = 0;
  int backoffs = 0;
  double backoff_total_ms = 0.0;
  int quarantined = 0;
  int corrupt_snapshots_skipped = 0;

  /// Multi-line human-readable summary.
  std::string render() const;
  /// Set one `prefix`-named counter per field (same integers as the
  /// struct, so report and metrics can never disagree).
  void publish(obs::Registry& registry,
               const std::string& prefix = "fleet.") const;
};

/// The fleet-level result: per-shard outcomes (sorted by shard id) plus
/// the supervision tallies.
struct FleetReport {
  std::vector<ShardOutcome> shards;
  SupervisionStats stats;

  /// Deterministic science payload: versioned header, then per shard its
  /// completion state, fault tallies and full sample log CSV.  Two runs
  /// of the same (specs, runner, chaos plan) produce identical bytes no
  /// matter how the crashes interleaved — this is what tests and
  /// operators diff.
  void write_payload(std::ostream& os) const;
  std::string payload() const;
  /// CRC-32 of payload(), the one-line fingerprint the tool prints.
  std::uint32_t payload_crc() const;

  /// Human-readable per-shard table + supervision summary (includes the
  /// timing-dependent half; not part of the determinism contract).
  std::string render() const;

  /// True when every shard completed (no quarantine).
  bool all_completed() const;
};

/// Forks, feeds and buries shard workers.  Single-threaded by design:
/// fork(2) and threads do not mix.
class FleetSupervisor {
 public:
  /// Throws std::invalid_argument on duplicate shard ids, an empty spec
  /// list or a ring-oscillator stage count no chip can be built with
  /// (before any worker is forked); throws std::runtime_error when
  /// checkpoint_dir is unusable.
  FleetSupervisor(FleetConfig config, std::vector<ShardSpec> shards);

  /// Run every shard to completion (or quarantine) and return the report.
  FleetReport run();

  const FleetConfig& config() const { return config_; }

 private:
  FleetConfig config_;
  std::vector<ShardSpec> shards_;
};

/// The paper's five-chip campaign as a fleet, extended cyclically to
/// `count` shards (shard i runs paper case i % 5 on a chip seeded
/// derive_seed(seed, i)) — the stock workload of `ash_fleet` and the
/// chaos tests.
std::vector<ShardSpec> paper_fleet_shards(int count, std::uint64_t seed,
                                          int ro_stages = 75);

}  // namespace ash::fleet
