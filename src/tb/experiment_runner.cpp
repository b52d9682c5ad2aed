#include "ash/tb/experiment_runner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "ash/fpga/checkpoint.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"
#include "ash/util/constants.h"
#include "ash/util/double_codec.h"
#include "ash/util/random.h"
#include "ash/util/stats.h"
#include "ash/util/table.h"
#include "ash/util/text_reader.h"
#include "ash/util/thread_pool.h"

namespace ash::tb {

namespace {

/// Environment the chip sees for an aging interval.
bti::OperatingCondition phase_condition(const Phase& phase, Volts supply,
                                        Kelvin temp) {
  bti::OperatingCondition env;
  env.voltage_v = supply;
  env.temperature_k = temp;
  switch (phase.mode) {
    case fpga::RoMode::kAcOscillating:
      env.gate_stress_duty = phase.ac_duty;
      break;
    case fpga::RoMode::kDcFrozen:
      env.gate_stress_duty = 1.0;
      break;
    case fpga::RoMode::kSleep:
      env.gate_stress_duty = 0.0;
      break;
  }
  return env;
}

/// How one sample attempt or phase attempt concluded.
enum class SampleStatus { kAccepted, kTripped, kKilled };

/// One campaign execution (fresh or resumed).  Owns the campaign clock, the
/// merged log/report and the phase attempt machinery.
class CampaignEngine {
 public:
  CampaignEngine(const RunnerConfig& config, fpga::FpgaChip& chip,
                 const TestCase& test_case)
      : cfg_(config), chip_(chip), tc_(test_case) {}

  CampaignResult run(const CampaignCheckpoint& from, int max_phases = -1) {
    fpga::restore(from.chip_state, chip_);
    t_campaign_ = from.t_campaign_s.value();
    log_ = from.log;
    report_ = from.faults;

    CampaignResult result;
    result.checkpoint = from;

    obs::set_sim_now(t_campaign_);
    obs::Span run_span(obs::EventKind::kRun, tc_.name, "tb.campaign");
    run_span.arg("chip", std::to_string(chip_.id()));
    run_span.arg("phases", std::to_string(tc_.phases.size()));

    const int phase_count = static_cast<int>(tc_.phases.size());
    const int stop_after =
        max_phases < 0 ? phase_count
                       : std::min(phase_count, from.next_phase + max_phases);
    for (int pi = from.next_phase; pi < stop_after; ++pi) {
      const Celsius prev_c =
          pi == from.next_phase ? from.chamber_c : tc_.phases[pi - 1].chamber_c;
      if (obs::tracing()) {
        obs::instant(
            obs::EventKind::kPhaseTransition,
            tc_.phases[static_cast<std::size_t>(pi)].label, "tb.campaign",
            {{"phase_index", std::to_string(pi)}});
      }
      if (kill_due() || !run_phase(pi, prev_c, result.checkpoint.chip_state)) {
        // Killed: roll the chip (and clock) back to the last boundary so
        // the caller's chip matches the resumable checkpoint.
        fpga::restore(result.checkpoint.chip_state, chip_);
        result.log = result.checkpoint.log;
        result.faults = result.checkpoint.faults;
        result.completed = false;
        return result;
      }
      result.checkpoint.next_phase = pi + 1;
      result.checkpoint.t_campaign_s = Seconds{t_campaign_};
      result.checkpoint.chamber_c = tc_.phases[pi].chamber_c;
      result.checkpoint.chip_state = fpga::snapshot(chip_);
      result.checkpoint.log = log_;
      result.checkpoint.faults = report_;
      if (obs::tracing()) {
        obs::instant(obs::EventKind::kCheckpointSave,
                     tc_.phases[static_cast<std::size_t>(pi)].label,
                     "tb.campaign",
                     {{"next_phase", std::to_string(pi + 1)},
                      {"samples", std::to_string(log_.size())}});
      }
    }
    result.log = log_;
    result.faults = report_;
    // A bounded step that stops short of the schedule is not "complete":
    // the checkpoint is the resume point for the next step.
    result.completed = result.checkpoint.next_phase >= phase_count;
    return result;
  }

 private:
  bool kill_due() const {
    return cfg_.abort_at_campaign_s >= Seconds{0.0} &&
           Seconds{t_campaign_} >= cfg_.abort_at_campaign_s;
  }

  /// Run every attempt of one phase.  Returns false when the kill switch
  /// fired (the current attempt's work is discarded; the chip is left
  /// mid-attempt and the caller restores the boundary checkpoint).
  bool run_phase(int phase_index, Celsius prev_chamber_c,
                 const fpga::ChipState& snapshot) {
    // `snapshot` is the phase-start chip state — the rewind target for
    // watchdog aborts — supplied by the caller's boundary checkpoint.
    const Phase& phase = tc_.phases[static_cast<std::size_t>(phase_index)];
    const double t_phase_start = t_campaign_;

    const int max_attempts =
        cfg_.watchdog.enabled ? std::max(1, cfg_.watchdog.max_phase_attempts)
                              : 1;

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        fpga::restore(snapshot, chip_);
        t_campaign_ = t_phase_start;
        obs::set_sim_now(t_campaign_);
        if (obs::tracing()) {
          obs::instant(obs::EventKind::kCheckpointRewind, phase.label,
                       "tb.campaign",
                       {{"attempt", std::to_string(attempt)}});
        }
      }
      const SampleStatus status =
          run_attempt(phase, phase_index, attempt,
                      /*allow_trip=*/attempt + 1 < max_attempts,
                      prev_chamber_c);
      if (status == SampleStatus::kKilled) return false;
      if (status == SampleStatus::kAccepted) return true;
      // kTripped: the attempt merged its report already; go around.
    }
    return true;  // unreachable: the last attempt cannot trip
  }

  /// Run one attempt of a phase.  On kAccepted the attempt's samples and
  /// report have been merged into the campaign log/report.
  SampleStatus run_attempt(const Phase& phase, int phase_index, int attempt,
                           bool allow_trip, Celsius prev_chamber_c) {
    const obs::ScopedTimer timer(
        obs::kernel_histogram(obs::Kernel::kTbPhaseAttempt));
    obs::set_sim_now(t_campaign_);
    obs::Span phase_span(obs::EventKind::kPhase, phase.label, "tb.phase");
    phase_span.arg("attempt", std::to_string(attempt));
    phase_span.arg("chamber_c", fmt_fixed(phase.chamber_c.value(), 1));
    phase_span.arg("supply_v", fmt_fixed(phase.supply_v.value(), 3));

    FaultReport attempt_report;
    FaultInjector faults(cfg_.fault_plan, phase_index, attempt,
                         phase.duration_s, &attempt_report);

    // Instruments are per-attempt: their noise streams derive from
    // (seed, phase, attempt), so a rewound phase re-runs with fresh noise
    // and a resumed campaign replays bit-identically.
    const std::uint64_t attempt_stream = derive_seed(
        derive_seed(cfg_.seed, static_cast<std::uint64_t>(phase_index)),
        static_cast<std::uint64_t>(attempt));

    ChamberConfig chamber_cfg = cfg_.chamber;
    chamber_cfg.seed = derive_seed(attempt_stream, 1);
    chamber_cfg.initial_c = prev_chamber_c;
    if (cfg_.instant_chamber) chamber_cfg.ramp_c_per_s = 1e9;
    ThermalChamber chamber(chamber_cfg);
    chamber.set_target(phase.chamber_c);

    SupplyConfig supply_cfg = cfg_.supply;
    supply_cfg.seed = derive_seed(attempt_stream, 2);
    PowerSupply supply(supply_cfg);
    supply.set_voltage(phase.supply_v);

    MeasurementConfig rig_cfg = cfg_.measurement;
    rig_cfg.seed = derive_seed(attempt_stream, 3);
    // A reference-clock jump is a systematic calibration bias this phase.
    rig_cfg.clock.error_ppm += faults.clock_offset_ppm();
    MeasurementRig rig(rig_cfg);

    DataLog attempt_log;
    int consecutive_implausible = 0;
    bool degraded = false;
    std::deque<double> recent_freqs;

    // Truth corruption saturates at the hardware's own limits: the chamber
    // over-temperature cutout caps an excursion, and the supply interlocks
    // cap a glitched output.
    const auto faulted_temp_c = [&](Celsius base, double t_phase) {
      const double base_c = base.value();
      const double excursed =
          base_c + faults.chamber_offset_c(Seconds{t_phase}).value();
      const double ceiling =
          std::max(base_c, cfg_.fault_plan.chamber.excursion_ceiling_c.value());
      return std::min(excursed, ceiling);
    };
    const auto faulted_supply_v = [&](Volts base, double t_phase) {
      return std::clamp(
          base.value() + faults.supply_offset_v(Seconds{t_phase}).value(),
          cfg_.supply.min_v.value(), cfg_.supply.max_v.value());
    };

    // Age the chip for `step` seconds under the phase's mode.  Fault
    // offsets (excursion, glitch) apply only inside the phase body.
    const auto age = [&](double step, bool in_body, double t_phase) {
      Kelvin temp_k = chamber.temperature_k();
      Volts supply_out = supply.output_v();
      if (in_body) {
        temp_k = Kelvin{celsius(faulted_temp_c(chamber.temperature_c(), t_phase))};
        supply_out = Volts{faulted_supply_v(supply_out, t_phase)};
      }
      const auto env = phase_condition(phase, supply_out, temp_k);
      chip_.evolve(phase.mode, env, Seconds{step});
      chamber.advance(Seconds{step});
      supply.advance(Seconds{step});
      t_campaign_ += step;
      obs::set_sim_now(t_campaign_);
    };

    // One logged sample, including retries.  kAccepted means a record was
    // added (possibly flagged); t_phase advances across retry backoffs.
    const auto take_sample = [&](double& t_phase) -> SampleStatus {
      int retries = 0;
      double backoff = cfg_.retry.backoff_s.value();
      for (;;) {
        if (kill_due()) return SampleStatus::kKilled;

        const double true_temp_c =
            faulted_temp_c(chamber.temperature_c(), t_phase);
        const double true_temp_k = celsius(true_temp_c);
        const double meas_vdd =
            faulted_supply_v(cfg_.measurement_vdd_v, t_phase);

        // Waking the RO for the gated count is itself a short AC stress at
        // the measurement supply (the paper's <3 s sampling overhead).  In
        // AC stress mode the ring is already running; the overhead is then
        // just part of the stress.
        const Seconds overhead = rig.sample_duration_s();
        if (phase.mode != fpga::RoMode::kAcOscillating) {
          bti::OperatingCondition meas_env;
          meas_env.voltage_v = Volts{meas_vdd};
          meas_env.temperature_k = Kelvin{true_temp_k};
          meas_env.gate_stress_duty = 0.5;
          chip_.evolve(fpga::RoMode::kAcOscillating, meas_env, overhead);
        }
        Measurement m = rig.measure(
            chip_.ro_frequency_hz(Volts{meas_vdd}, Kelvin{true_temp_k}),
            &faults);
        const bool comm_ok = !faults.comm_lost();
        const bool valid = comm_ok && m.valid();
        const Celsius reported_c =
            faults.reported_chamber_c(Celsius{true_temp_c}, Seconds{t_phase});

        bool implausible = false;
        if (cfg_.watchdog.enabled && valid) {
          if (std::abs((reported_c - phase.chamber_c).value()) >
              cfg_.watchdog.max_chamber_error_c.value()) {
            implausible = true;
          }
          if (!recent_freqs.empty()) {
            const double med = median(
                std::vector<double>(recent_freqs.begin(), recent_freqs.end()));
            if (med > 0.0 &&
                std::abs(m.frequency_hz.value() - med) / med >
                    cfg_.watchdog.max_frequency_deviation) {
              implausible = true;
            }
          }
        }

        const auto record = [&](SampleQuality quality) {
          SampleRecord r;
          r.test_case = tc_.name;
          r.chip_id = chip_.id();
          r.phase = phase.label;
          r.t_campaign_s = Seconds{t_campaign_};
          r.t_phase_s = Seconds{t_phase};
          r.chamber_c = reported_c;
          r.supply_v = phase.supply_v;
          r.counts = m.counts;
          r.frequency_hz = m.frequency_hz;
          r.delay_s = m.delay_s;
          r.quality = quality;
          r.retries = retries;
          attempt_log.add(r);
          if (obs::tracing()) {
            obs::instant(obs::EventKind::kMeasurement, phase.label,
                         "tb.sample",
                         {{"quality", to_string(quality)},
                          {"retries", std::to_string(retries)},
                          {"frequency_hz", strformat("%.6g", m.frequency_hz.value())},
                          {"chamber_c", fmt_fixed(reported_c.value(), 2)}});
          }
        };

        if (valid && !implausible) {
          record(retries == 0 ? SampleQuality::kGood : SampleQuality::kRetried);
          if (retries > 0) attempt_report.samples_retried++;
          consecutive_implausible = 0;
          recent_freqs.push_back(m.frequency_hz.value());
          while (static_cast<int>(recent_freqs.size()) > cfg_.watchdog.window &&
                 !recent_freqs.empty()) {
            recent_freqs.pop_front();
          }
          return SampleStatus::kAccepted;
        }

        if (retries < cfg_.retry.max_sample_retries) {
          if (obs::tracing()) {
            obs::instant(obs::EventKind::kRetry, phase.label, "tb.sample",
                         {{"retry", std::to_string(retries + 1)},
                          {"backoff_s", fmt_fixed(backoff, 1)},
                          {"reason", !comm_ok        ? "comm_lost"
                                     : !m.valid()    ? "invalid_reading"
                                                     : "implausible"}});
          }
          // Bounded backoff *in simulated time*: the lab waits, the chip
          // keeps aging in the phase's mode, and the sample grid shifts.
          age(backoff, /*in_body=*/true, t_phase);
          t_phase += backoff;
          backoff *= cfg_.retry.backoff_multiplier;
          ++retries;
          continue;
        }

        // Retries exhausted: graceful degradation — keep the sample,
        // flagged, rather than dropping it.
        if (valid) {
          record(SampleQuality::kSuspect);
          attempt_report.samples_suspect++;
          if (cfg_.watchdog.enabled) {
            ++consecutive_implausible;
            if (consecutive_implausible >= cfg_.watchdog.trip_after) {
              if (obs::tracing()) {
                obs::instant(
                    obs::EventKind::kFaultDetected, "watchdog.trip",
                    "tb.watchdog",
                    {{"phase", phase.label},
                     {"consecutive", std::to_string(consecutive_implausible)},
                     {"action", allow_trip ? "abort_phase" : "degrade"}});
              }
              if (allow_trip) return SampleStatus::kTripped;
              degraded = true;
            }
          }
        } else {
          m = Measurement{};  // no data came back: log zeros
          record(SampleQuality::kLost);
          attempt_report.samples_lost++;
        }
        return SampleStatus::kAccepted;
      }
    };

    // Stabilize the chamber before the phase clock starts; the chip keeps
    // aging in the phase's mode at the instantaneous temperature.  The
    // ramp is outside the fault-event windows.  The step is adaptive: a
    // chamber already at target settles in zero steps, a near-target
    // chamber (or an instant one) takes a single closing step of exactly
    // seconds_to_target(), and only a long physical ramp subdivides — at
    // kSettleResolutionS so the aging integral tracks the instantaneous
    // temperature (one merged step would age at the wrong temperature and
    // break bit-compatibility with recorded campaigns).
    constexpr double kSettleResolutionS = 60.0;
    while (!chamber.at_target()) {
      if (kill_due()) return SampleStatus::kKilled;
      const double step =
          std::min(kSettleResolutionS, chamber.seconds_to_target().value());
      age(step, /*in_body=*/false, 0.0);
    }

    // Sample cadence: a reading at t = 0, every sample_every_s, and at the
    // phase end (retry backoffs shift the grid).
    double t_phase = 0.0;
    SampleStatus status = take_sample(t_phase);
    while (status == SampleStatus::kAccepted &&
           t_phase < phase.duration_s.value()) {
      if (kill_due()) {
        status = SampleStatus::kKilled;
        break;
      }
      double step = phase.duration_s.value() - t_phase;
      if (phase.sample_every_s > Seconds{0.0}) {
        step = std::min(step, phase.sample_every_s.value());
      }
      age(step, /*in_body=*/true, t_phase);
      t_phase += step;
      status = take_sample(t_phase);
    }

    if (status == SampleStatus::kKilled) return status;
    if (status == SampleStatus::kTripped) {
      attempt_report.phase_aborts++;
      attempt_report.samples_discarded +=
          static_cast<int>(attempt_log.size());
      // The discarded samples leave the log, so their per-sample handling
      // tallies leave the report too; injected-event counts stay (the
      // faults really happened, the rewind just erased their damage).
      attempt_report.samples_retried = 0;
      attempt_report.samples_suspect = 0;
      attempt_report.samples_lost = 0;
      report_.merge(attempt_report);
      return status;
    }
    if (degraded) attempt_report.phases_degraded++;
    report_.merge(attempt_report);
    log_.append(attempt_log);
    return SampleStatus::kAccepted;
  }

  const RunnerConfig& cfg_;
  fpga::FpgaChip& chip_;
  const TestCase& tc_;
  DataLog log_;
  FaultReport report_;
  double t_campaign_ = 0.0;
};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("campaign checkpoint: " + what);
}

}  // namespace

void CampaignCheckpoint::save(std::ostream& os) const {
  os << "ash-campaign v2\n";
  os << "next_phase " << next_phase << "\n";
  std::string clocks = "t_campaign ";
  append_g17(clocks, t_campaign_s.value());
  clocks += "\nchamber_c ";
  append_g17(clocks, chamber_c.value());
  os << clocks << "\n";
  os << "faults " << faults.serialize() << "\n";
  os << "chip\n";
  fpga::save_checkpoint(os, chip_state);  // ends with "end\n"
  // v2 declares the record count so a stream cut at a CSV row boundary is
  // detected as truncation, not silently loaded as a shorter log.
  os << "log " << log.size() << "\n";
  log.write_csv(os);
}

CampaignCheckpoint CampaignCheckpoint::load(std::istream& is) {
  return deserialize(util::read_stream(is));
}

std::string CampaignCheckpoint::serialize() const {
  std::ostringstream os;
  save(os);
  return os.str();
}

CampaignCheckpoint CampaignCheckpoint::deserialize(const std::string& bytes) {
  // Every failure (the reader's, FaultReport's, DataLog's) names what was
  // being parsed and where the document stopped, so a truncated or
  // bit-flipped snapshot produces an actionable error instead of a
  // zero-filled state.
  constexpr int kMaxCount = std::numeric_limits<int>::max();
  util::LineCursor cursor(bytes);
  try {
    const std::string_view header = cursor.next_line();
    if (header != "ash-campaign v2") {
      util::throw_parse_error("bad header '" +
                              std::string(header.substr(0, 40)) +
                              "' (want 'ash-campaign v2')");
    }
    CampaignCheckpoint ckpt;
    ckpt.next_phase = cursor.keyed("next_phase").integer(0, kMaxCount);
    ckpt.t_campaign_s = Seconds{cursor.keyed("t_campaign").number()};
    ckpt.chamber_c = Celsius{cursor.keyed("chamber_c").number()};
    ckpt.faults =
        FaultReport::deserialize(std::string(cursor.keyed("faults").text()));
    if (cursor.next_line() != "chip") {
      util::throw_parse_error("field 'chip' section missing");
    }
    // The chip's own checkpoint document, through its "end" trailer.
    const std::size_t chip_begin = cursor.offset();
    while (cursor.next_line() != "end") {
    }
    ckpt.chip_state = fpga::load_checkpoint(std::string_view(bytes).substr(
        chip_begin, cursor.offset() - chip_begin));
    const int log_size = cursor.keyed("log").integer(0, kMaxCount);
    ckpt.log = DataLog::read_csv(cursor.take(bytes.size() - cursor.offset()));
    if (ckpt.log.size() != static_cast<std::size_t>(log_size)) {
      util::throw_parse_error(
          "field 'log' truncated: declared " + std::to_string(log_size) +
          " record(s), parsed " + std::to_string(ckpt.log.size()));
    }
    return ckpt;
  } catch (const std::runtime_error& e) {
    fail(std::string(e.what()) + " (stream offset " +
         std::to_string(cursor.offset()) + ")");
  }
}

ExperimentRunner::ExperimentRunner(const RunnerConfig& config)
    : config_(config) {}

DataLog ExperimentRunner::run(fpga::FpgaChip& chip,
                              const TestCase& test_case) {
  return run_campaign(chip, test_case).log;
}

CampaignCheckpoint initial_checkpoint(const fpga::FpgaChip& chip,
                                      const TestCase& test_case,
                                      const RunnerConfig& config) {
  CampaignCheckpoint start;
  start.next_phase = 0;
  start.t_campaign_s = Seconds{0.0};
  start.chamber_c = test_case.phases.empty()
                        ? config.chamber.initial_c
                        : test_case.phases.front().chamber_c;
  start.chip_state = fpga::snapshot(chip);
  return start;
}

CampaignResult ExperimentRunner::run_campaign(fpga::FpgaChip& chip,
                                              const TestCase& test_case) {
  return CampaignEngine(config_, chip, test_case)
      .run(initial_checkpoint(chip, test_case, config_));
}

CampaignResult ExperimentRunner::run_campaign(fpga::FpgaChip& chip,
                                              const TestCase& test_case,
                                              const CampaignCheckpoint& from,
                                              int max_phases) {
  return CampaignEngine(config_, chip, test_case).run(from, max_phases);
}

RunnerConfig tolerant_runner_config(const FaultPlan& plan) {
  RunnerConfig config;
  config.fault_plan = plan;
  // One extra gated reading per sample and a 25 % trimmed mean over them:
  // the min and max readings are discarded, so a single outlier or dropped
  // reading costs a little gate time instead of corrupting the sample,
  // while the surviving readings still average down the gated counter's
  // quantization (a plain median would keep a full-LSB error).
  config.measurement.readings_per_sample = 5;
  config.measurement.estimator = RobustEstimator::kTrimmedMean;
  config.measurement.trim_fraction = 0.25;
  return config;
}

RunnerConfig naive_runner_config(const FaultPlan& plan) {
  RunnerConfig config;
  config.fault_plan = plan;
  config.watchdog.enabled = false;
  config.retry.max_sample_retries = 0;
  config.measurement.estimator = RobustEstimator::kMean;
  return config;
}

fpga::ChipConfig paper_chip_config(int chip_id, int ro_stages,
                                   std::uint64_t seed_base) {
  fpga::ChipConfig cc;
  cc.chip_id = chip_id;
  cc.seed = seed_base + static_cast<std::uint64_t>(chip_id);
  cc.ro_stages = ro_stages;
  return cc;
}

std::vector<std::future<CampaignResult>> submit_paper_campaign(
    util::ThreadPool& pool, const RunnerConfig& config, int ro_stages,
    std::uint64_t seed_base) {
  const std::vector<TestCase> cases = paper_campaign();
  // Longest schedule first: chip 5's re-stress makes it the critical path,
  // and on a pool smaller than the task list it must not queue behind a
  // short chip.
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return cases[a].total_duration_s() > cases[b].total_duration_s();
  });
  std::vector<std::future<CampaignResult>> futures(cases.size());
  for (const std::size_t i : order) {
    futures[i] = pool.submit([tc = cases[i], config, ro_stages, seed_base] {
      fpga::FpgaChip chip(paper_chip_config(tc.chip_id, ro_stages, seed_base));
      return ExperimentRunner(config).run_campaign(chip, tc);
    });
  }
  return futures;
}

std::vector<CampaignResult> run_paper_campaign(util::ThreadPool& pool,
                                               const RunnerConfig& config,
                                               int ro_stages,
                                               std::uint64_t seed_base) {
  auto futures = submit_paper_campaign(pool, config, ro_stages, seed_base);
  // Every chip finishes before a failure is rethrown.
  for (auto& f : futures) f.wait();
  std::vector<CampaignResult> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

std::vector<fpga::ChipConfig> variation_population() {
  std::vector<fpga::ChipConfig> chips(20);
  for (std::size_t i = 0; i < chips.size(); ++i) {
    chips[i].chip_id = static_cast<int>(i) + 1;
    chips[i].seed = 0x7A0 + i;
    chips[i].ro_stages = 25;
  }
  return chips;
}

TestCase variation_case(int chip_id) {
  TestCase tc;
  tc.name = "variation";
  tc.chip_id = chip_id;
  tc.phases = {burn_in_phase(),
               dc_stress_phase("AS110DC24", Celsius{110.0}, units::hours(24.0)),
               recovery_phase("AR110N6", Volts{-0.3}, Celsius{110.0},
                              units::hours(6.0))};
  return tc;
}

}  // namespace ash::tb
