#include "ash/tb/population_runner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "ash/bti/batch_ensemble.h"
#include "ash/bti/condition.h"
#include "ash/fpga/lut.h"
#include "ash/fpga/ring_oscillator.h"
#include "ash/fpga/routing.h"
#include "ash/obs/trace.h"
#include "ash/tb/fault.h"
#include "ash/tb/measurement.h"
#include "ash/tb/power_supply.h"
#include "ash/tb/thermal_chamber.h"
#include "ash/util/constants.h"
#include "ash/util/random.h"
#include "ash/util/stats.h"
#include "ash/util/table.h"

namespace ash::tb {

namespace {

/// Environment the chips see for an aging interval (the solo runner's
/// phase_condition, replicated — bit-identical env construction).
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

[[noreturn]] void lockstep_violation(const std::string& what) {
  throw std::logic_error(
      "PopulationRunner: lockstep broken (" + what +
      "); this campaign needs per-chip control flow - run the chips solo");
}

constexpr int kLutDevices = static_cast<int>(fpga::kLutDeviceCount);
constexpr int kRoutingDevices = static_cast<int>(fpga::kRoutingDeviceCount);
constexpr int kSiteDevices = kLutDevices + kRoutingDevices;

/// The batched physics of one population campaign: one BatchEnsemble per
/// device site (stage x device), members in chip order, plus the write-back
/// targets inside the chips themselves.
class PopulationPhysics {
 public:
  PopulationPhysics(const std::vector<fpga::FpgaChip*>& chips,
                    const bti::BatchConfig& batch_config)
      : stages_(chips.front()->ro().stage_count()) {
    sites_.reserve(static_cast<std::size_t>(stages_ * kSiteDevices));
    targets_.reserve(sites_.capacity());
    for (int s = 0; s < stages_; ++s) {
      for (int d = 0; d < kSiteDevices; ++d) {
        std::vector<const bti::TrapEnsemble*> members;
        std::vector<bti::TrapEnsemble*> targets;
        members.reserve(chips.size());
        targets.reserve(chips.size());
        for (fpga::FpgaChip* chip : chips) {
          auto& stage = chip->ro().stage(s);
          bti::TrapEnsemble& e =
              d < kLutDevices
                  ? stage.lut.device(d).ensemble()
                  : stage.routing.device(d - kLutDevices).ensemble();
          members.push_back(&e);
          targets.push_back(&e);
        }
        sites_.emplace_back(members, batch_config);
        targets_.push_back(std::move(targets));
      }
    }
  }

  /// Age every chip for dt seconds — the batched mirror of
  /// RingOscillator::evolve + the lut/routing age_* rules.  The stressed
  /// sets and the LUT output under DC are structural (the inverter config
  /// is shared), so one bias analysis covers the population.
  void evolve(const fpga::RingOscillator& structure, fpga::RoMode mode,
              const bti::OperatingCondition& env, Seconds dt) {
    switch (mode) {
      case fpga::RoMode::kAcOscillating: {
        bti::OperatingCondition ac = env;
        if (ac.gate_stress_duty <= 0.0) ac.gate_stress_duty = 0.5;
        for (auto& site : sites_) site.evolve(ac, dt);
        break;
      }
      case fpga::RoMode::kDcFrozen: {
        bti::OperatingCondition dc = env;
        dc.gate_stress_duty = 1.0;
        bti::OperatingCondition anneal = dc;
        anneal.voltage_v = Volts{0.0};
        anneal.gate_stress_duty = 0.0;
        for (int s = 0; s < stages_; ++s) {
          const auto& stage = structure.stage(s);
          const bool in0 = fpga::RingOscillator::dc_input_of_stage(s);
          const auto lut_stressed = stage.lut.stressed_devices(in0, true);
          const auto routing_stressed =
              stage.routing.stressed_devices(stage.lut.evaluate(in0, true));
          for (int d = 0; d < kSiteDevices; ++d) {
            const bool stressed =
                d < kLutDevices
                    ? std::find(lut_stressed.begin(), lut_stressed.end(),
                                d) != lut_stressed.end()
                    : std::find(routing_stressed.begin(),
                                routing_stressed.end(),
                                d - kLutDevices) != routing_stressed.end();
            site(s, d).evolve(stressed ? dc : anneal, dt);
          }
        }
        break;
      }
      case fpga::RoMode::kSleep: {
        bti::OperatingCondition sleep = env;
        sleep.gate_stress_duty = 0.0;
        for (auto& site : sites_) site.evolve(sleep, dt);
        break;
      }
    }
  }

  /// Push the batch occupancies back into the chips so frequency reads see
  /// the current aging state (occupancies are probabilities, so the
  /// ensembles' [0, 1] validation always passes; the version bump
  /// invalidates the fpga delay caches, exactly as a solo evolve would).
  void write_back() {
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      auto& site_targets = targets_[i];
      for (int m = 0; m < static_cast<int>(site_targets.size()); ++m) {
        site_targets[static_cast<std::size_t>(m)]->set_occupancies(
            sites_[i].occupancies(m));
      }
    }
  }

 private:
  bti::BatchEnsemble& site(int stage, int device) {
    return sites_[static_cast<std::size_t>(stage * kSiteDevices + device)];
  }

  int stages_;
  std::vector<bti::BatchEnsemble> sites_;
  std::vector<std::vector<bti::TrapEnsemble*>> targets_;
};

/// Per-chip measurement-side state: the solo runner's rig, fault injector
/// and watchdog history, constructed with the solo derivation chains so the
/// chip's recorded noise matches its solo run bit-for-bit.
struct ChipLane {
  FaultReport report;
  FaultInjector faults;
  MeasurementRig rig;
  std::deque<double> recent_freqs;
  DataLog log;

  ChipLane(const RunnerConfig& cfg, const Phase& phase, int phase_index,
           std::uint64_t attempt_stream)
      : faults(cfg.fault_plan, phase_index, /*attempt=*/0,
               phase.duration_s, &report),
        rig(rig_config(cfg, attempt_stream, faults)) {}

 private:
  static MeasurementConfig rig_config(const RunnerConfig& cfg,
                                      std::uint64_t attempt_stream,
                                      const FaultInjector& faults) {
    MeasurementConfig rig_cfg = cfg.measurement;
    rig_cfg.seed = derive_seed(attempt_stream, 3);
    rig_cfg.clock.error_ppm += faults.clock_offset_ppm();
    return rig_cfg;
  }
};

}  // namespace

PopulationRunner::PopulationRunner(const RunnerConfig& config,
                                   const PopulationRunnerConfig& population)
    : config_(config), population_(population) {
  if (config_.abort_at_campaign_s >= Seconds{0.0}) {
    throw std::invalid_argument(
        "PopulationRunner: the abort_at_campaign_s kill switch is not "
        "supported on the lockstep path");
  }
}

std::vector<DataLog> PopulationRunner::run(
    const std::vector<fpga::FpgaChip*>& chips, const TestCase& tc) {
  if (chips.empty()) {
    throw std::invalid_argument("PopulationRunner: empty population");
  }
  for (const fpga::FpgaChip* chip : chips) {
    if (chip == nullptr) {
      throw std::invalid_argument("PopulationRunner: null chip");
    }
    if (chip->ro().stage_count() != chips.front()->ro().stage_count()) {
      throw std::invalid_argument(
          "PopulationRunner: chips must share one RO structure");
    }
  }

  const int n = static_cast<int>(chips.size());
  std::vector<DataLog> logs(static_cast<std::size_t>(n));
  if (tc.phases.empty()) return logs;

  bti::BatchConfig batch_config;
  batch_config.pool = population_.pool;
  PopulationPhysics physics(chips, batch_config);
  const fpga::RingOscillator& structure = chips.front()->ro();

  double t_campaign = 0.0;
  obs::set_sim_now(t_campaign);
  obs::Span run_span(obs::EventKind::kRun, tc.name, "tb.population");
  run_span.arg("chips", std::to_string(n));
  run_span.arg("phases", std::to_string(tc.phases.size()));

  for (int pi = 0; pi < static_cast<int>(tc.phases.size()); ++pi) {
    const Phase& phase = tc.phases[static_cast<std::size_t>(pi)];
    // Boundary chamber state as the solo engine sees it: the first phase
    // starts at its own setpoint (initial_checkpoint), later phases at the
    // previous setpoint.
    const Celsius prev_chamber_c =
        pi == 0 ? tc.phases.front().chamber_c
                : tc.phases[static_cast<std::size_t>(pi - 1)].chamber_c;

    obs::set_sim_now(t_campaign);
    obs::Span phase_span(obs::EventKind::kPhase, phase.label, "tb.phase");
    phase_span.arg("chips", std::to_string(n));
    phase_span.arg("chamber_c", fmt_fixed(phase.chamber_c.value(), 1));

    // Solo instrument streams derive from (seed, phase, attempt) — shared
    // config, attempt pinned to 0 on the lockstep path — so one chamber
    // and one supply stand in for every chip's bit-identical copies.
    const std::uint64_t attempt_stream = derive_seed(
        derive_seed(config_.seed, static_cast<std::uint64_t>(pi)), 0);

    ChamberConfig chamber_cfg = config_.chamber;
    chamber_cfg.seed = derive_seed(attempt_stream, 1);
    chamber_cfg.initial_c = prev_chamber_c;
    if (config_.instant_chamber) chamber_cfg.ramp_c_per_s = 1e9;
    ThermalChamber chamber(chamber_cfg);
    chamber.set_target(phase.chamber_c);

    SupplyConfig supply_cfg = config_.supply;
    supply_cfg.seed = derive_seed(attempt_stream, 2);
    PowerSupply supply(supply_cfg);
    supply.set_voltage(phase.supply_v);

    std::vector<ChipLane> lanes;
    lanes.reserve(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      lanes.emplace_back(config_, phase, pi, attempt_stream);
    }

    // Truth-corruption helpers, applied per lane so each injector's stream
    // advances exactly as its solo twin's would.  The injector streams
    // derive from (plan, phase, attempt) only — chip-independent — so every
    // lane returns the same offsets and lane 0's values drive the shared
    // environment.
    const auto faulted_temp_c = [&](ChipLane& lane, Celsius base,
                                    double t_phase) {
      const double base_c = base.value();
      const double excursed =
          base_c + lane.faults.chamber_offset_c(Seconds{t_phase}).value();
      const double ceiling = std::max(
          base_c, config_.fault_plan.chamber.excursion_ceiling_c.value());
      return std::min(excursed, ceiling);
    };
    const auto faulted_supply_v = [&](ChipLane& lane, Volts base,
                                      double t_phase) {
      return std::clamp(
          base.value() + lane.faults.supply_offset_v(Seconds{t_phase}).value(),
          config_.supply.min_v.value(), config_.supply.max_v.value());
    };

    // Age the whole population for `step` seconds under the phase's mode.
    const auto age = [&](double step, bool in_body, double t_phase) {
      Kelvin temp_k = chamber.temperature_k();
      Volts supply_out = supply.output_v();
      if (in_body) {
        // Every lane's injector must see the solo call sequence; the
        // returned offsets are identical, so lane 0 supplies the values.
        double temp_c0 = 0.0;
        double supply0 = 0.0;
        for (int c = 0; c < n; ++c) {
          const double t_c =
              faulted_temp_c(lanes[static_cast<std::size_t>(c)],
                             chamber.temperature_c(), t_phase);
          const double s_v = faulted_supply_v(
              lanes[static_cast<std::size_t>(c)], supply.output_v(), t_phase);
          if (c == 0) {
            temp_c0 = t_c;
            supply0 = s_v;
          }
        }
        temp_k = Kelvin{celsius(temp_c0)};
        supply_out = Volts{supply0};
      }
      const auto env = phase_condition(phase, supply_out, temp_k);
      physics.evolve(structure, phase.mode, env, Seconds{step});
      chamber.advance(Seconds{step});
      supply.advance(Seconds{step});
      t_campaign += step;
      obs::set_sim_now(t_campaign);
    };

    // One lockstep sample across the population.  Any lane that would make
    // the solo runner retry, degrade or trip cannot be followed without
    // desynchronizing the others, so it throws instead.
    const auto take_sample = [&](double t_phase) {
      // Stage 1 (per lane, solo call order): truth values for this sample.
      std::vector<double> true_temp_c(static_cast<std::size_t>(n));
      std::vector<double> meas_vdd(static_cast<std::size_t>(n));
      for (int c = 0; c < n; ++c) {
        auto& lane = lanes[static_cast<std::size_t>(c)];
        true_temp_c[static_cast<std::size_t>(c)] =
            faulted_temp_c(lane, chamber.temperature_c(), t_phase);
        meas_vdd[static_cast<std::size_t>(c)] =
            faulted_supply_v(lane, config_.measurement_vdd_v, t_phase);
      }
      const Kelvin true_temp_k{celsius(true_temp_c[0])};

      // Stage 2: outside AC stress the gated count wakes every ring — one
      // short batched AC stress at the measurement supply.
      const Seconds overhead = lanes[0].rig.sample_duration_s();
      if (phase.mode != fpga::RoMode::kAcOscillating) {
        bti::OperatingCondition meas_env;
        meas_env.voltage_v = Volts{meas_vdd[0]};
        meas_env.temperature_k = true_temp_k;
        meas_env.gate_stress_duty = 0.5;
        physics.evolve(structure, fpga::RoMode::kAcOscillating, meas_env,
                       overhead);
      }
      physics.write_back();

      // Stage 3 (per lane): measure, judge, record — the solo sample tail.
      for (int c = 0; c < n; ++c) {
        auto& lane = lanes[static_cast<std::size_t>(c)];
        const fpga::FpgaChip& chip = *chips[static_cast<std::size_t>(c)];
        Measurement m = lane.rig.measure(
            chip.ro_frequency_hz(Volts{meas_vdd[static_cast<std::size_t>(c)]},
                                 true_temp_k),
            &lane.faults);
        const bool comm_ok = !lane.faults.comm_lost();
        const bool valid = comm_ok && m.valid();
        const Celsius reported_c = lane.faults.reported_chamber_c(
            Celsius{true_temp_c[static_cast<std::size_t>(c)]},
            Seconds{t_phase});

        bool implausible = false;
        if (config_.watchdog.enabled && valid) {
          if (std::abs((reported_c - phase.chamber_c).value()) >
              config_.watchdog.max_chamber_error_c.value()) {
            implausible = true;
          }
          if (!lane.recent_freqs.empty()) {
            const double med = median(std::vector<double>(
                lane.recent_freqs.begin(), lane.recent_freqs.end()));
            if (med > 0.0 &&
                std::abs(m.frequency_hz.value() - med) / med >
                    config_.watchdog.max_frequency_deviation) {
              implausible = true;
            }
          }
        }
        if (!valid) {
          lockstep_violation(
              std::string(comm_ok ? "invalid reading" : "chip link lost") +
              " on chip " + std::to_string(chip.id()));
        }
        if (implausible) {
          lockstep_violation("implausible sample on chip " +
                             std::to_string(chip.id()));
        }

        SampleRecord r;
        r.test_case = tc.name;
        r.chip_id = chip.id();
        r.phase = phase.label;
        r.t_campaign_s = Seconds{t_campaign};
        r.t_phase_s = Seconds{t_phase};
        r.chamber_c = reported_c;
        r.supply_v = phase.supply_v;
        r.counts = m.counts;
        r.frequency_hz = m.frequency_hz;
        r.delay_s = m.delay_s;
        r.quality = SampleQuality::kGood;
        r.retries = 0;
        lane.log.add(r);

        lane.recent_freqs.push_back(m.frequency_hz.value());
        while (static_cast<int>(lane.recent_freqs.size()) >
                   config_.watchdog.window &&
               !lane.recent_freqs.empty()) {
          lane.recent_freqs.pop_front();
        }
      }
    };

    // Chamber stabilization before the phase clock starts, then the solo
    // sample cadence: t = 0, every sample_every_s, and the phase end.
    constexpr double kSettleResolutionS = 60.0;
    while (!chamber.at_target()) {
      const double step =
          std::min(kSettleResolutionS, chamber.seconds_to_target().value());
      age(step, /*in_body=*/false, 0.0);
    }

    double t_phase = 0.0;
    take_sample(t_phase);
    while (t_phase < phase.duration_s.value()) {
      double step = phase.duration_s.value() - t_phase;
      if (phase.sample_every_s > Seconds{0.0}) {
        step = std::min(step, phase.sample_every_s.value());
      }
      age(step, /*in_body=*/true, t_phase);
      t_phase += step;
      take_sample(t_phase);
    }

    for (int c = 0; c < n; ++c) {
      logs[static_cast<std::size_t>(c)].append(
          lanes[static_cast<std::size_t>(c)].log);
    }
  }

  return logs;
}

}  // namespace ash::tb
