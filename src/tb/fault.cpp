#include "ash/tb/fault.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "ash/obs/metrics.h"
#include "ash/obs/trace.h"
#include "ash/util/table.h"
#include "ash/util/text_reader.h"

namespace ash::tb {

namespace {

/// Window faults are drawn at attempt start but fire later (phase-relative
/// window); the instant records when the draw happened, the args say when
/// the fault bites.
void trace_injection(const char* channel,
                     std::vector<std::pair<std::string, std::string>> args) {
  obs::instant(obs::EventKind::kFaultInjected, channel, "tb.fault",
               std::move(args));
}

}  // namespace

bool FaultPlan::ideal() const {
  return chamber.excursion_probability == 0.0 &&
         chamber.sensor_stuck_probability == 0.0 &&
         chamber.sensor_drift_c_per_hour == 0.0 &&
         supply.glitches_per_day == 0.0 &&
         rig.dropped_reading_probability == 0.0 &&
         rig.outlier_probability == 0.0 && rig.clock_jump_probability == 0.0 &&
         comm.loss_probability == 0.0;
}

FaultPlan FaultPlan::none() { return {}; }

FaultPlan FaultPlan::representative() {
  FaultPlan p;
  p.chamber.excursion_probability = 1.0;
  p.chamber.excursion_magnitude_c = Celsius{30.0};
  p.chamber.excursion_duration_s = Seconds{5400.0};
  p.chamber.sensor_stuck_probability = 0.1;
  p.supply.glitches_per_day = 0.25;
  p.rig.dropped_reading_probability = 0.01;
  p.rig.outlier_probability = 0.01;
  p.comm.loss_probability = 0.005;
  return p;
}

FaultPlan FaultPlan::harsh() {
  FaultPlan p;
  p.chamber.excursion_probability = 1.0;
  p.chamber.excursion_magnitude_c = Celsius{40.0};
  p.chamber.excursion_duration_s = Seconds{10800.0};
  p.chamber.sensor_stuck_probability = 0.5;
  p.chamber.sensor_drift_c_per_hour = 0.5;
  p.supply.glitches_per_day = 2.0;
  p.supply.glitch_delta_v = Volts{-0.25};
  p.supply.glitch_duration_s = Seconds{600.0};
  p.rig.dropped_reading_probability = 0.05;
  p.rig.outlier_probability = 0.05;
  p.rig.clock_jump_probability = 0.25;
  p.rig.clock_jump_ppm = 300.0;
  p.comm.loss_probability = 0.03;
  return p;
}

FaultPlan FaultPlan::by_name(const std::string& name) {
  if (name == "none") return none();
  if (name == "representative") return representative();
  if (name == "harsh") return harsh();
  throw std::invalid_argument(
      "FaultPlan::by_name: unknown preset '" + name +
      "' (expected none|representative|harsh)");
}

bool FaultReport::clean() const { return *this == FaultReport{}; }

void FaultReport::merge(const FaultReport& other) {
  chamber_excursions += other.chamber_excursions;
  sensor_faults += other.sensor_faults;
  supply_glitches += other.supply_glitches;
  clock_jumps += other.clock_jumps;
  readings_dropped += other.readings_dropped;
  outlier_readings += other.outlier_readings;
  comm_losses += other.comm_losses;
  samples_retried += other.samples_retried;
  samples_suspect += other.samples_suspect;
  samples_lost += other.samples_lost;
  phase_aborts += other.phase_aborts;
  phases_degraded += other.phases_degraded;
  samples_discarded += other.samples_discarded;
}

std::string FaultReport::render() const {
  std::ostringstream os;
  os << "fault report:\n"
     << "  injected: " << chamber_excursions << " chamber excursion(s), "
     << sensor_faults << " sensor fault(s), " << supply_glitches
     << " supply glitch(es), " << clock_jumps << " clock jump(s)\n"
     << "  encountered: " << readings_dropped << " dropped reading(s), "
     << outlier_readings << " outlier reading(s), " << comm_losses
     << " comm loss(es)\n"
     << "  handled: " << samples_retried << " sample(s) retried, "
     << samples_suspect << " flagged suspect, " << samples_lost
     << " lost, " << phase_aborts << " phase abort(s) ("
     << samples_discarded << " sample(s) discarded), " << phases_degraded
     << " phase(s) degraded\n";
  return os.str();
}

std::string FaultReport::serialize() const {
  std::ostringstream os;
  os << chamber_excursions << ' ' << sensor_faults << ' ' << supply_glitches
     << ' ' << clock_jumps << ' ' << readings_dropped << ' '
     << outlier_readings << ' ' << comm_losses << ' ' << samples_retried
     << ' ' << samples_suspect << ' ' << samples_lost << ' ' << phase_aborts
     << ' ' << phases_degraded << ' ' << samples_discarded;
  return os.str();
}

FaultReport FaultReport::deserialize(const std::string& line) {
  util::Tokens tokens(line, [](const std::string& detail) {
    throw std::runtime_error("FaultReport::deserialize: " + detail);
  });
  FaultReport r;
  // serialize()'s order: thirteen counts, none negative.
  for (int* count :
       {&r.chamber_excursions, &r.sensor_faults, &r.supply_glitches,
        &r.clock_jumps, &r.readings_dropped, &r.outlier_readings,
        &r.comm_losses, &r.samples_retried, &r.samples_suspect,
        &r.samples_lost, &r.phase_aborts, &r.phases_degraded,
        &r.samples_discarded}) {
    *count = tokens.next("count").integer(0, std::numeric_limits<int>::max());
  }
  tokens.expect_end("fault report");
  return r;
}

FaultInjector::FaultInjector(const FaultPlan& plan, int phase_index,
                             int attempt, Seconds phase_duration,
                             FaultReport* report)
    : plan_(plan),
      rng_(derive_seed(
          derive_seed(plan.seed, static_cast<std::uint64_t>(phase_index)),
          static_cast<std::uint64_t>(attempt))),
      report_(report) {
  const double phase_duration_s = phase_duration.value();
  const double recur =
      std::pow(std::clamp(plan_.event_recurrence, 0.0, 1.0), attempt);
  const double duration = std::max(phase_duration_s, 0.0);

  // Event windows start anywhere in the phase body and may overhang its
  // end: a controller runaway does not resolve itself just because the
  // schedule says the phase is over, so the samples taken at the end of a
  // phase — the ones the recovery metrics hinge on — are fair game.
  if (rng_.bernoulli(plan_.chamber.excursion_probability * recur)) {
    const double len =
        std::min(plan_.chamber.excursion_duration_s.value(), duration);
    excursion_begin_s_ = rng_.uniform(0.0, duration);
    excursion_end_s_ = excursion_begin_s_ + len;
    excursion_ = len > 0.0;
    if (excursion_ && report_) report_->chamber_excursions++;
    if (excursion_ && obs::tracing()) {
      trace_injection("chamber.excursion",
                      {{"begin_s", fmt_fixed(excursion_begin_s_, 0)},
                       {"end_s", fmt_fixed(excursion_end_s_, 0)},
                       {"magnitude_c",
                        fmt_fixed(plan_.chamber.excursion_magnitude_c.value(), 1)}});
    }
  }

  if (rng_.bernoulli(plan_.chamber.sensor_stuck_probability * recur)) {
    const double len =
        std::min(plan_.chamber.sensor_stuck_duration_s.value(), duration);
    stuck_begin_s_ = rng_.uniform(0.0, duration);
    stuck_end_s_ = stuck_begin_s_ + len;
    sensor_stuck_ = len > 0.0;
    if (sensor_stuck_ && report_) report_->sensor_faults++;
    if (sensor_stuck_ && obs::tracing()) {
      trace_injection("chamber.sensor_stuck",
                      {{"begin_s", fmt_fixed(stuck_begin_s_, 0)},
                       {"end_s", fmt_fixed(stuck_end_s_, 0)}});
    }
  }

  const double p_glitch =
      std::min(plan_.supply.glitches_per_day * duration / 86400.0, 1.0) *
      recur;
  if (rng_.bernoulli(p_glitch)) {
    const double len =
        std::min(plan_.supply.glitch_duration_s.value(), duration);
    glitch_begin_s_ = rng_.uniform(0.0, duration);
    glitch_end_s_ = glitch_begin_s_ + len;
    glitch_ = len > 0.0;
    if (glitch_ && report_) report_->supply_glitches++;
    if (glitch_ && obs::tracing()) {
      trace_injection("supply.glitch",
                      {{"begin_s", fmt_fixed(glitch_begin_s_, 0)},
                       {"end_s", fmt_fixed(glitch_end_s_, 0)},
                       {"delta_v", fmt_fixed(plan_.supply.glitch_delta_v.value(), 3)}});
    }
  }

  if (rng_.bernoulli(plan_.rig.clock_jump_probability * recur)) {
    clock_offset_ppm_ =
        (rng_.bernoulli(0.5) ? 1.0 : -1.0) * plan_.rig.clock_jump_ppm;
    if (report_) report_->clock_jumps++;
    if (obs::tracing()) {
      trace_injection("rig.clock_jump",
                      {{"offset_ppm", fmt_fixed(clock_offset_ppm_, 1)}});
    }
  }
}

Celsius FaultInjector::chamber_offset_c(Seconds t_phase) const {
  const double t_phase_s = t_phase.value();
  if (excursion_ && t_phase_s >= excursion_begin_s_ &&
      t_phase_s < excursion_end_s_) {
    return plan_.chamber.excursion_magnitude_c;
  }
  return Celsius{0.0};
}

Volts FaultInjector::supply_offset_v(Seconds t_phase) const {
  const double t_phase_s = t_phase.value();
  if (glitch_ && t_phase_s >= glitch_begin_s_ && t_phase_s < glitch_end_s_) {
    return plan_.supply.glitch_delta_v;
  }
  return Volts{0.0};
}

Celsius FaultInjector::reported_chamber_c(Celsius true_temp, Seconds t_phase) {
  const double true_c = true_temp.value();
  const double t_phase_s = t_phase.value();
  const double reported =
      true_c + plan_.chamber.sensor_drift_c_per_hour * (t_phase_s / 3600.0);
  if (sensor_stuck_ && t_phase_s >= stuck_begin_s_ &&
      t_phase_s < stuck_end_s_) {
    if (!stuck_engaged_) {
      stuck_value_c_ = have_last_reported_ ? last_reported_c_ : reported;
      stuck_engaged_ = true;
    }
    return Celsius{stuck_value_c_};
  }
  have_last_reported_ = true;
  last_reported_c_ = reported;
  return Celsius{reported};
}

bool FaultInjector::reading_dropped() {
  const bool fired = rng_.bernoulli(plan_.rig.dropped_reading_probability);
  if (fired && report_) report_->readings_dropped++;
  if (fired && obs::tracing()) trace_injection("rig.reading_dropped", {});
  return fired;
}

bool FaultInjector::reading_outlier() {
  const bool fired = rng_.bernoulli(plan_.rig.outlier_probability);
  if (fired && report_) report_->outlier_readings++;
  if (fired && obs::tracing()) trace_injection("rig.outlier", {});
  return fired;
}

double FaultInjector::corrupt_counts(double counts) {
  return counts *
         rng_.uniform(plan_.rig.outlier_factor_lo, plan_.rig.outlier_factor_hi);
}

bool FaultInjector::comm_lost() {
  const bool fired = rng_.bernoulli(plan_.comm.loss_probability);
  if (fired && report_) report_->comm_losses++;
  if (fired && obs::tracing()) trace_injection("comm.loss", {});
  return fired;
}

void FaultReport::publish(obs::Registry& registry,
                          const std::string& prefix) const {
  registry.counter(prefix + "chamber_excursions")
      .set(static_cast<std::uint64_t>(chamber_excursions));
  registry.counter(prefix + "sensor_faults")
      .set(static_cast<std::uint64_t>(sensor_faults));
  registry.counter(prefix + "supply_glitches")
      .set(static_cast<std::uint64_t>(supply_glitches));
  registry.counter(prefix + "clock_jumps")
      .set(static_cast<std::uint64_t>(clock_jumps));
  registry.counter(prefix + "readings_dropped")
      .set(static_cast<std::uint64_t>(readings_dropped));
  registry.counter(prefix + "outlier_readings")
      .set(static_cast<std::uint64_t>(outlier_readings));
  registry.counter(prefix + "comm_losses")
      .set(static_cast<std::uint64_t>(comm_losses));
  registry.counter(prefix + "samples_retried")
      .set(static_cast<std::uint64_t>(samples_retried));
  registry.counter(prefix + "samples_suspect")
      .set(static_cast<std::uint64_t>(samples_suspect));
  registry.counter(prefix + "samples_lost")
      .set(static_cast<std::uint64_t>(samples_lost));
  registry.counter(prefix + "phase_aborts")
      .set(static_cast<std::uint64_t>(phase_aborts));
  registry.counter(prefix + "phases_degraded")
      .set(static_cast<std::uint64_t>(phases_degraded));
  registry.counter(prefix + "samples_discarded")
      .set(static_cast<std::uint64_t>(samples_discarded));
}

}  // namespace ash::tb
