/// population_batch — 1024 chips in 16 kinetics classes through the batch
/// engine in exact mode.
///
/// Sixteen classes (one trap seed each, drawn from `--seed`) make both the
/// per-class rate path and the per-member sweep carry load; with one class
/// the rate path would vanish.  The chamber drifts every stress step so the
/// rate cache cannot hit, AC wakes interrupt the stress as the lab's
/// measurements do, a recovery tail follows, and the whole population's
/// DeltaVth is read every 16 steps.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ash/bti/batch_ensemble.h"
#include "ash/bti/condition.h"
#include "ash/bti/parameters.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/util/constants.h"
#include "ash/util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ash;

constexpr int kClasses = 16;
constexpr int kPerClass = 64;
constexpr int kChips = kClasses * kPerClass;

struct Step {
  bti::OperatingCondition condition;
  Seconds dt{0.0};
  bool read = false;
};

/// 360 one-minute stress steps at a chamber drifting 0.011 K per step, an
/// AC measurement wake every 20 steps, then 96 ten-minute recovery steps.
std::vector<Step> schedule() {
  std::vector<Step> steps;
  for (int s = 0; s < 360; ++s) {
    Step step;
    step.condition.voltage_v = Volts{1.2};
    step.condition.temperature_k = Kelvin{celsius(110.0) + 0.011 * s};
    step.condition.gate_stress_duty = 1.0;
    step.dt = Seconds{60.0};
    step.read = (s % 16) == 15;
    steps.push_back(step);
    if ((s % 20) == 19) {
      Step wake;
      wake.condition = bti::ac_stress(Volts{1.2}, Celsius{110.0}, 0.5);
      wake.dt = Seconds{2.7};
      steps.push_back(wake);
    }
  }
  for (int s = 0; s < 96; ++s) {
    Step step;
    step.condition = bti::recovery(Volts{-0.3}, Celsius{110.0});
    step.dt = Seconds{600.0};
    step.read = (s % 16) == 15;
    steps.push_back(step);
  }
  return steps;
}

/// Member m belongs to class m / kPerClass; its DeltaVth amplitude carries
/// a lognormal chip-corner scale.
std::vector<bti::BatchMemberSpec> population(std::uint64_t seed) {
  std::vector<bti::BatchMemberSpec> specs;
  specs.reserve(kChips);
  Rng corners(derive_seed(seed, 0xC0));
  for (int m = 0; m < kChips; ++m) {
    bti::TdParameters p = bti::default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(corners.normal(0.0, 0.05));
    specs.push_back({p, derive_seed(seed, static_cast<std::uint64_t>(m / kPerClass))});
  }
  return specs;
}

/// One member per class, chosen by the seed, for the solo cross-check.
std::vector<int> sampled_members(std::uint64_t seed) {
  Rng pick(derive_seed(seed, 0x5A));
  std::vector<int> out;
  for (int c = 0; c < kClasses; ++c) {
    out.push_back(c * kPerClass + static_cast<int>(pick.uniform_index(kPerClass)));
  }
  return out;
}

/// One pass: fresh population, the whole schedule.  Step i (its evolve
/// and, every 16 steps, the read) is a unit of kind i.  Returns every
/// value of the sampled members at each read, then their final values.
std::vector<double> run_pass(bti::BatchEnsemble& batch,
                             const std::vector<Step>& steps,
                             const std::vector<int>& sampled, Tracer* tracer,
                             UnitTimes& units) {
  std::vector<double> seen;
  batch.reset();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_s();
    {
      const ScopedSpan span(tracer, "bti.batch_evolve");
      batch.evolve(step.condition, step.dt);
    }
    if (step.read) {
      const ScopedSpan span(tracer, "bti.batch_read");
      const std::vector<double> all = batch.delta_vth_all();
      for (const int m : sampled) seen.push_back(all[static_cast<std::size_t>(m)]);
    }
    units.add(static_cast<int>(i), seconds_since(t0), process_cpu_s() - cpu0);
  }
  for (const int m : sampled) seen.push_back(batch.delta_vth(m));
  return seen;
}

/// The same values from a solo TrapEnsemble per sampled member.
std::vector<double> solo_reference(const std::vector<bti::BatchMemberSpec>& specs,
                                   const std::vector<Step>& steps,
                                   const std::vector<int>& sampled) {
  std::vector<bti::TrapEnsemble> solo;
  for (const int m : sampled) {
    const auto& spec = specs[static_cast<std::size_t>(m)];
    solo.emplace_back(spec.params, spec.seed);
  }
  std::vector<double> seen;
  for (const Step& step : steps) {
    for (auto& e : solo) e.evolve(step.condition, step.dt);
    if (step.read) {
      for (const auto& e : solo) seen.push_back(e.delta_vth());
    }
  }
  for (const auto& e : solo) seen.push_back(e.delta_vth());
  return seen;
}

}  // namespace

Result run_population_batch(const RunConfig& config) {
  Result result;
  // A pass is ~0.1 s on a 4-core x86 VM.
  const int passes = std::max(1, 10 * config.seconds);
  const std::vector<Step> steps = schedule();
  const auto reads = static_cast<std::uint64_t>(
      std::count_if(steps.begin(), steps.end(), [](const Step& s) { return s.read; }));
  const std::vector<bti::BatchMemberSpec> specs = population(config.seed);
  const std::vector<int> sampled = sampled_members(config.seed);
  const std::vector<double> expected = solo_reference(specs, steps, sampled);

  // Set-up is building the population.  The first build is the one the
  // passes use; more builds, thrown away, are spread between passes so
  // that no single stretch of host contention decides setup_s.
  const auto build = [&](Tracer* tracer, std::vector<double>& setup_s) {
    const ScopedSpan span(tracer, "bti.batch_build");
    const std::int64_t t0 = now_ns();
    bti::BatchEnsemble batch(specs);
    setup_s.push_back(seconds_since(t0));
    return batch;
  };
  const auto timed_passes = [&](Tracer* tracer, std::vector<double>& setup_s) {
    bti::BatchEnsemble batch = build(tracer, setup_s);
    result.checks.expect(batch.class_count() == kClasses,
                         "population has " + std::to_string(batch.class_count()) +
                             " kinetics classes");
    UnitTimes units;
    const int extras = kSetupRepeats - 1;
    for (int p = 0; p < passes; ++p) {
      const std::vector<double> seen = run_pass(batch, steps, sampled, tracer, units);
      result.checks.attempt(steps.size() + reads);
      result.checks.expect(seen == expected,
                           "pass " + std::to_string(p) +
                               ": a sampled member differs from its solo run");
      if ((p + 1) * extras / passes > p * extras / passes) (void)build(tracer, setup_s);
    }
    return units;
  };

  std::vector<double> setup_s;
  if (!config.trace) {
    const UnitTimes units = timed_passes(nullptr, setup_s);
    result.add("setup_s", percentile(setup_s, 50.0), "s");
    result.add("wall_s", units.wall_s(), "s");
    result.add("cpu_s", units.cpu_s(), "s");
    result.add("peak_rss_mb", process_peak_rss_mb(), "MB");
    result.note("passes", passes, "count");
    result.note("setup.samples", static_cast<double>(setup_s.size()), "count");
    return result;
  }

  const UnitTimes untraced = timed_passes(nullptr, setup_s);
  Tracer tracer;
  const UnitTimes traced = timed_passes(&tracer, setup_s);
  const std::vector<double> evolve_ns = tracer.self_ns_of("bti.batch_evolve");
  const auto total_s = [&](const std::vector<double>& ns) {
    double sum = 0.0;
    for (const double v : ns) sum += v;
    return sum * 1e-9 / passes;
  };
  result.add("bti.batch_build_s",
             percentile(tracer.self_ns_of("bti.batch_build"), 50.0) * 1e-9, "s");
  result.add("bti.batch_evolve.calls",
             static_cast<double>(evolve_ns.size()) / passes, "count");
  result.add("bti.batch_evolve.p50_us", percentile(evolve_ns, 50.0) * 1e-3, "us");
  result.add("bti.batch_evolve.p99_us",
             checked_percentile(evolve_ns, 99.0, "bti.batch_evolve") * 1e-3, "us");
  result.add("bti.batch_evolve.total_s", total_s(evolve_ns), "s");
  result.add("bti.batch_read.total_s", total_s(tracer.self_ns_of("bti.batch_read")),
             "s");
  result.add("obs.trace_overhead", traced.wall_s() / untraced.wall_s(), "ratio");
  result.note("bti.batch_evolve.samples", static_cast<double>(evolve_ns.size()),
              "count");
  tracer.write_jsonl(work_dir() + "/trace-population_batch-seed" +
                     std::to_string(config.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench
