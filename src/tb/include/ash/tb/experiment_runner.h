#pragma once

/// \file experiment_runner.h
/// Drives a TestCase on a chip inside the virtual lab.
///
/// The runner owns the instruments (thermal chamber, DC supply, measurement
/// rig) and reproduces the paper's measurement procedure:
///   * the chamber ramps to each phase's setpoint before the phase clock
///     starts (instant by default for idealized reproduction);
///   * during DC stress the RO is frozen and "enabled only every 20 minutes
///     for data recording" — each sample wakes the ring at the nominal
///     supply for the gated count (<3 s of AC overhead, which the runner
///     faithfully applies as aging);
///   * during sleep the RO "wakes up every 30 minutes for data sampling",
///     which briefly interrupts recovery the same way;
///   * every logged value passes through the counter model (quantization +
///     counting noise + averaging), never the true frequency.
///
/// On top of the ideal procedure the runner is a *fault-tolerant campaign
/// operator*: with a non-ideal `FaultPlan` it retries failed samples with
/// bounded backoff in simulated time (retries cost aging — the RO must wake
/// again), rejects outlier readings through the rig's robust estimator,
/// aborts a phase whose readings stay implausible (watchdog) and rewinds it
/// from a chip checkpoint, and annotates every logged sample with a quality
/// flag instead of silently dropping data.  Determinism contract: instrument
/// noise and fault draws derive from (seed, phase index, attempt), so the
/// same configuration replays bit-identically — including across a campaign
/// kill + checkpoint resume.

#include <cstdint>
#include <future>
#include <iosfwd>
#include <string>
#include <vector>

#include "ash/fpga/checkpoint.h"
#include "ash/fpga/chip.h"
#include "ash/tb/data_log.h"
#include "ash/tb/fault.h"
#include "ash/tb/measurement.h"
#include "ash/tb/power_supply.h"
#include "ash/tb/test_case.h"
#include "ash/tb/thermal_chamber.h"

namespace ash::util {
class ThreadPool;
}  // namespace ash::util

namespace ash::tb {

/// Per-sample retry policy.  A sample attempt can fail outright (chip link
/// lost, every gated reading dropped) or come back implausible (watchdog
/// checks); either way the runner waits out a backoff *in simulated time* —
/// the chip keeps aging in the phase's mode — and measures again, paying the
/// AC measurement overhead once more.
struct RetryPolicy {
  /// Measurement attempts beyond the first (0 = naive single-shot lab).
  int max_sample_retries = 3;
  /// First backoff (in simulated time) before a retry.
  Seconds backoff_s{30.0};
  /// Multiplier on the backoff after each failed retry.
  double backoff_multiplier = 2.0;
};

/// Phase watchdog: declares a sample implausible when the reported chamber
/// temperature strays from the setpoint or the inferred frequency jumps
/// away from the recent history, and aborts the phase after too many
/// consecutive implausible samples.  An aborted phase is rewound — chip
/// state restored from the phase-start checkpoint, campaign clock rolled
/// back — and re-run as a fresh attempt with fresh instrument/fault seeds.
/// The last allowed attempt always runs to completion; samples that would
/// have tripped it are kept and flagged kSuspect (graceful degradation).
struct WatchdogConfig {
  bool enabled = true;
  /// Max |reported chamber - setpoint| tolerated.
  Celsius max_chamber_error_c{5.0};
  /// Max relative deviation of a sample's frequency from the running
  /// median of recently accepted samples of the same phase attempt.
  double max_frequency_deviation = 0.05;
  /// Number of recent accepted samples in that running median.
  int window = 5;
  /// Consecutive implausible samples (after retries) that trip the phase.
  int trip_after = 2;
  /// Total attempts per phase (first run + watchdog re-runs).
  int max_phase_attempts = 3;
};

/// Runner configuration.
struct RunnerConfig {
  MeasurementConfig measurement;
  ChamberConfig chamber;
  SupplyConfig supply;
  /// Supply applied while sampling (the RO cannot oscillate at 0/-0.3 V).
  Volts measurement_vdd_v{1.2};
  /// true: chamber reaches each setpoint instantly (idealized, default for
  /// the paper-reproduction benches); false: finite ramp, during which the
  /// chip ages under the phase's mode at the instantaneous temperature.
  bool instant_chamber = true;
  /// Root seed for instrument noise; vary to model run-to-run noise.
  /// Per-phase/per-attempt instrument streams derive from it.
  std::uint64_t seed = default_seed(SeedStream::kRunner);
  /// Fault scenario injected into the campaign (default: ideal lab).
  FaultPlan fault_plan;
  RetryPolicy retry;
  WatchdogConfig watchdog;
  /// Simulated-time kill switch: when >= 0, the campaign stops once the
  /// campaign clock reaches this value (mid-phase work of the current
  /// attempt is discarded) and the result carries completed == false plus a
  /// resumable checkpoint.  Models an operator stopping the lab.
  Seconds abort_at_campaign_s{-1.0};
};

/// Resumable campaign state at a phase boundary.  Held as values; only
/// save/serialize write text: a versioned document embedding the fpga chip
/// checkpoint and the sample log CSV, which load/deserialize read back
/// whole, chip section included.
struct CampaignCheckpoint {
  /// Index of the next phase to run (== phase count when complete).
  int next_phase = 0;
  Seconds t_campaign_s{0.0};
  /// Chamber base temperature at the boundary (the previous setpoint).
  Celsius chamber_c{0.0};
  /// The chip's aging state at the boundary.
  fpga::ChipState chip_state;
  DataLog log;
  FaultReport faults;

  void save(std::ostream& os) const;
  /// Throws std::runtime_error on malformed input.  The error message names
  /// the failing field and the stream offset where parsing stopped, so a
  /// truncated or corrupted snapshot is diagnosable from the exception
  /// alone ("field 't_campaign' is not a number: 'garb' (stream offset
  /// 42)").  Malformed input never yields a partially-filled checkpoint.
  static CampaignCheckpoint load(std::istream& is);

  /// String-form conveniences over save/load, used by the durable fleet
  /// store (which frames this text document in a CRC32-checked binary
  /// envelope — see ash/fleet/checkpoint_store.h).
  std::string serialize() const;
  static CampaignCheckpoint deserialize(const std::string& bytes);
};

/// The phase-0 checkpoint of a fresh campaign on `chip` — what
/// run_campaign(chip, tc) starts from.  Exposed so external schedulers
/// (the fleet supervisor) can seed a durable store before any phase runs.
CampaignCheckpoint initial_checkpoint(const fpga::FpgaChip& chip,
                                      const TestCase& test_case,
                                      const RunnerConfig& config);

/// Outcome of a campaign (or a resumed tail of one).
struct CampaignResult {
  DataLog log;
  FaultReport faults;
  /// False when the abort_at_campaign_s kill switch fired first.
  bool completed = true;
  /// State at the last completed phase boundary — the resume point when
  /// !completed, the final state otherwise.
  CampaignCheckpoint checkpoint;
};

/// The virtual lab operator.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(const RunnerConfig& config);

  /// Run the full schedule on the chip, mutating its aging state, and
  /// return the sample log.  Convenience wrapper over run_campaign.
  DataLog run(fpga::FpgaChip& chip, const TestCase& test_case);

  /// Run the full schedule with fault injection and tolerance policies.
  CampaignResult run_campaign(fpga::FpgaChip& chip,
                              const TestCase& test_case);

  /// Resume a killed campaign from a checkpoint.  `chip` must be
  /// constructed with the same parameters as the original run; its aging
  /// state is overwritten from the checkpoint.  With identical runner
  /// configuration the resumed tail replays bit-identically to the
  /// uninterrupted campaign.
  ///
  /// `max_phases` bounds how many phases this call advances (< 0 = run to
  /// the end).  A bounded call returns at the next phase boundary with
  /// `completed` reflecting whether the whole schedule is done — the
  /// stepping primitive fleet workers use to checkpoint durably between
  /// phases.
  CampaignResult run_campaign(fpga::FpgaChip& chip,
                              const TestCase& test_case,
                              const CampaignCheckpoint& from,
                              int max_phases = -1);

  const RunnerConfig& config() const { return config_; }

 private:
  RunnerConfig config_;
};

/// Preset: a lab that expects `plan` and defends against it — robust
/// (median) reading estimator with one extra reading per sample, retries,
/// watchdog with checkpoint rewind.
RunnerConfig tolerant_runner_config(const FaultPlan& plan);

/// Preset: the same dirty lab run naively — single-shot samples, plain
/// mean over readings, no plausibility checks, no rewinds.
RunnerConfig naive_runner_config(const FaultPlan& plan);

/// Table 1 chip `chip_id` with `ro_stages` RO stages and seed
/// `seed_base + chip_id` (the paper campaign's seeds are 0x40A0 + chip id).
fpga::ChipConfig paper_chip_config(int chip_id, int ro_stages,
                                   std::uint64_t seed_base = 0x40A0);

/// Queue the whole Table 1 campaign (`paper_campaign()`) on `pool` without
/// waiting: one task per chip, longest schedule (chip 5) first, each
/// building its `paper_chip_config` chip and running it under its own
/// ExperimentRunner(`config`).  The futures come back in chip order.  The
/// tasks share no state and instrument noise derives from (runner seed,
/// phase, attempt) alone, so the results are bit-identical to the serial
/// loop at any pool size and whatever else the pool runs.
std::vector<std::future<CampaignResult>> submit_paper_campaign(
    util::ThreadPool& pool, const RunnerConfig& config, int ro_stages,
    std::uint64_t seed_base = 0x40A0);

/// `submit_paper_campaign`, waited for: the results in chip order.
std::vector<CampaignResult> run_paper_campaign(
    util::ThreadPool& pool, const RunnerConfig& config, int ro_stages,
    std::uint64_t seed_base = 0x40A0);

/// Ablation F's chip-variation population (DESIGN.md Sec. 4): 20 chips,
/// chip i (0-based) with id i + 1, seed 0x7A0 + i and a 25-stage CUT (more
/// per-chip spread, faster run).
std::vector<fpga::ChipConfig> variation_population();

/// The population's schedule: burn-in, 24 h DC stress at 110 degC
/// (AS110DC24), 6 h recovery at 110 degC and -0.3 V (AR110N6).
TestCase variation_case(int chip_id);

}  // namespace ash::tb
