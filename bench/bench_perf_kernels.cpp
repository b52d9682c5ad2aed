/// bench_perf_kernels — the fixed kernel workload behind the CI perf gate.
///
/// Not a paper figure: this measures the library's own hot paths so
/// regressions in simulation throughput are visible.  One deterministic
/// workload runs with the in-library kernel timers on: trap-ensemble
/// evolution, RO delay evaluation, the chip-5 campaign and a fixed-condition
/// drive of the same chip, a multicore month (repeated), the 1024-chip
/// population (independent engines vs the batch engine and its build,
/// repeated), the fleet margin projection and the enabled timer's own cost
/// against its clock pair.  `tools/perf_history.py gate` runs a parent and a change
/// build of this binary in alternating pairs and judges every timing row
/// of the JSON by its paired ratio.  The `exp:` line names the path of
/// util::exp_batch on this host (`avx2+fma` or `std::exp`) and that of the
/// trap kinetics' rate law, decay rules and update (`trap pass: avx2` or
/// `scalar`), so a host whose trap kinetics fall back to the scalar loops
/// is visible.
///
/// Usage: bench_perf_kernels --json FILE.  Exit 0 ok, 1 a cross-check
/// failed or FILE is unwritable, 2 usage.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "ash/bti/batch_ensemble.h"
#include "ash/bti/closed_form.h"
#include "ash/bti/trap_ensemble.h"
#include "ash/bti/trap_kinetics.h"
#include "ash/fleet/service.h"
#include "ash/fpga/chip.h"
#include "ash/mc/margin.h"
#include "ash/mc/system.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/constants.h"
#include "ash/util/exp_batch.h"
#include "ash/util/random.h"

namespace {

using namespace ash;

double wall_ms(const std::chrono::steady_clock::time_point begin,
               const std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Run the fixed, deterministic workload with the in-library kernel
/// timers on, write the JSON rows to `path` and print the profile and the
/// cross-checks.  The workload covers the three
/// regimes that matter: the steady-state trap kernel (rate-cache hits),
/// the chip-5 runner campaign (chamber noise defeats the cache — the
/// honest end-to-end number) and a fixed-condition drive of the same chip
/// (cache-friendly end-to-end).  A margin pass times the fleet's read
/// path: a whole-shard query and the same devices asked one at a time.
/// Every timed result feeds a printed or checked value, so the compiler
/// cannot drop the work it times.
int run_workload(const std::string& path) {
  using clock = std::chrono::steady_clock;
  obs::enable_profiling(true);
  obs::reset_profile();

  // Steady-state trap kernel: one condition, repeated steps.
  double trap_delta_vth = 0.0;
  {
    bti::TrapEnsemble e(bti::default_td_parameters(), 1);
    const auto cond = bti::dc_stress(Volts{1.2}, Celsius{110.0});
    for (int i = 0; i < 200000; ++i) e.evolve(cond, Seconds{60.0});
    trap_delta_vth = e.delta_vth();
  }

  // Repeated RO reads at a fixed operating point (cached path delays).
  double ro_frequency_sum = 0.0;
  {
    fpga::ChipConfig cc;
    cc.ro_stages = 75;
    fpga::FpgaChip chip(cc);
    for (int i = 0; i < 20000; ++i) {
      ro_frequency_sum +=
          chip.ro_frequency_hz(Volts{1.2}, Kelvin{celsius(20.0)}).value();
    }
  }

  // End-to-end chip-5 campaign through the full instrument stack.
  const tb::TestCase tc = tb::paper_campaign().at(4);
  double campaign_ms = 0.0;
  std::size_t campaign_records = 0;
  {
    fpga::FpgaChip chip(tb::paper_chip_config(tc.chip_id, 75));
    tb::ExperimentRunner runner{tb::RunnerConfig{}};
    const auto t0 = clock::now();
    const auto result = runner.run_campaign(chip, tc);
    campaign_ms = wall_ms(t0, clock::now());
    campaign_records = result.log.size();
  }

  // The same chip schedule driven at fixed per-phase conditions (no
  // chamber noise): what the trap kernel does when the rate cache can
  // actually hit.
  double fixed_drive_ms = 0.0;
  double drive_frequency_sum = 0.0;
  {
    fpga::FpgaChip chip(tb::paper_chip_config(tc.chip_id, 75));
    const auto t0 = clock::now();
    for (const auto& phase : tc.phases) {
      bti::OperatingCondition cond;
      cond.voltage_v = phase.supply_v;
      cond.temperature_k = Kelvin{celsius(phase.chamber_c.value())};
      cond.gate_stress_duty =
          phase.mode == fpga::RoMode::kAcOscillating ? phase.ac_duty
          : phase.mode == fpga::RoMode::kDcFrozen    ? 1.0
                                                     : 0.0;
      const int steps = std::max(
          1, phase.sample_every_s > Seconds{0.0}
                 ? static_cast<int>(phase.duration_s / phase.sample_every_s)
                 : 1);
      const double dt = phase.duration_s.value() / steps;
      for (int s = 0; s < steps; ++s) {
        chip.evolve(phase.mode, cond, Seconds{dt});
        // Read at the nominal measurement rail (sleep phases bias the
        // core below threshold; the counter always runs at 1.2 V).
        drive_frequency_sum +=
            chip.ro_frequency_hz(Volts{1.2}, cond.temperature_k).value();
      }
    }
    fixed_drive_ms = wall_ms(t0, clock::now());
  }

  // The multicore month exercises the mc.* kernel split.  One month is
  // 120 calls per row; kMcMonths repeats give every mc.* row >= 10 ms of
  // timed work, and every repeat must reach the same mean DeltaVth.
  constexpr int kMcMonths = 1500;
  double mc_mean_delta_vth = 0.0;
  {
    mc::SystemConfig cfg;
    cfg.horizon_s = Seconds{30.0 * 86400.0};
    for (int month = 0; month < kMcMonths; ++month) {
      mc::HeaterAwareCircadianScheduler scheduler;
      const double mean =
          mc::simulate_system(cfg, scheduler).mean_end_delta_vth_v.value();
      if (month > 0 && mean != mc_mean_delta_vth) {
        std::fprintf(stderr,
                     "bench_perf_kernels: mc month %d reached mean dVth "
                     "%.9g V, month 0 %.9g V\n",
                     month, mean, mc_mean_delta_vth);
        return 1;
      }
      mc_mean_delta_vth = mean;
    }
  }

  // Population sweep (the acceptance workload): 1024 chips of one
  // kinetics class (shared seed, per-chip DeltaVth corner scale) driven
  // through a noisy fleet campaign — drifting chamber temperature (every
  // interval a fresh condition), periodic AC measurement wakes, a steady
  // recovery tail, and a whole-fleet margin read every 16 steps.  Two
  // passes over the identical schedule: 1024 independent TrapEnsembles
  // and the batch engine (asserted bit-identical).
  constexpr int kPopChips = 1024;
  double pop_independent_ms = 0.0;
  double pop_batch_ms = 0.0;
  double pop_build_ms = 0.0;
  int pop_steps = 0;
  double pop_read_sum = 0.0;
  {
    struct PopStep {
      bti::OperatingCondition condition;
      double dt_s = 0.0;
      bool read_fleet = false;
    };
    std::vector<PopStep> schedule;
    for (int s = 0; s < 360; ++s) {
      PopStep step;
      step.condition.voltage_v = Volts{1.2};
      step.condition.temperature_k = Kelvin{celsius(110.0) + 0.011 * s};
      step.condition.gate_stress_duty = 1.0;
      step.dt_s = 60.0;
      step.read_fleet = (s % 16) == 15;
      schedule.push_back(step);
      if ((s % 20) == 19) {
        PopStep wake;
        wake.condition = bti::ac_stress(Volts{1.2}, Celsius{110.0}, 0.5);
        wake.dt_s = 2.7;
        schedule.push_back(wake);
      }
    }
    for (int s = 0; s < 96; ++s) {
      PopStep step;
      step.condition = bti::recovery(Volts{-0.3}, Celsius{110.0});
      step.dt_s = 600.0;
      step.read_fleet = (s % 16) == 15;
      schedule.push_back(step);
    }
    pop_steps = static_cast<int>(schedule.size());

    std::vector<bti::BatchMemberSpec> specs;
    Rng scales(0x90F7);
    for (int m = 0; m < kPopChips; ++m) {
      bti::TdParameters p = bti::default_td_parameters();
      p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
      specs.push_back({p, 0xF1EE7});
    }

    // Pass 1: independent per-chip engines.  Profiling off so the huge
    // one-shot-condition call count does not skew the
    // bti.trap_ensemble.evolve row the perf gate compares.
    std::vector<double> independent_delta(kPopChips, 0.0);
    obs::enable_profiling(false);
    {
      std::vector<bti::TrapEnsemble> fleet;
      fleet.reserve(kPopChips);
      for (const auto& spec : specs) fleet.emplace_back(spec.params, spec.seed);
      const auto t0 = clock::now();
      double acc = 0.0;
      for (const auto& step : schedule) {
        for (auto& chip : fleet) chip.evolve(step.condition, Seconds{step.dt_s});
        if (step.read_fleet) {
          for (const auto& chip : fleet) acc += chip.delta_vth();
        }
      }
      pop_independent_ms = wall_ms(t0, clock::now());
      pop_read_sum = acc;
      for (int m = 0; m < kPopChips; ++m) {
        independent_delta[static_cast<std::size_t>(m)] =
            fleet[static_cast<std::size_t>(m)].delta_vth();
      }
    }
    obs::enable_profiling(true);

    // Pass 2: batch engine (this is the bti.batch.evolve row), repeated
    // kBatchSweeps times from a fresh engine so the row times >= 10 ms;
    // the build and sweep wall times are per sweep.  Every sweep must
    // read what the independent engines read.
    constexpr int kBatchSweeps = 16;
    for (int sweep = 0; sweep < kBatchSweeps; ++sweep) {
      const auto build_t0 = clock::now();
      bti::BatchEnsemble batch(specs);
      pop_build_ms += wall_ms(build_t0, clock::now()) / kBatchSweeps;
      const auto t0 = clock::now();
      double acc = 0.0;
      for (const auto& step : schedule) {
        batch.evolve(step.condition, Seconds{step.dt_s});
        if (step.read_fleet) {
          for (int m = 0; m < kPopChips; ++m) acc += batch.delta_vth(m);
        }
      }
      pop_batch_ms += wall_ms(t0, clock::now()) / kBatchSweeps;
      if (acc != pop_read_sum) {
        std::fprintf(stderr,
                     "bench_perf_kernels: batch sweep %d read %.9g V, the "
                     "independent runs %.9g V\n",
                     sweep, acc, pop_read_sum);
        return 1;
      }
      for (int m = 0; m < kPopChips; ++m) {
        if (batch.delta_vth(m) != independent_delta[static_cast<std::size_t>(m)]) {
          std::fprintf(stderr,
                       "bench_perf_kernels: batch engine diverged from "
                       "independent runs at chip %d\n",
                       m);
          return 1;
        }
      }
    }
  }

  // Margin projection: one 256-device whole-shard query (priors by the
  // fleet service's genesis rule, one mission schedule) and the same 256
  // devices as single queries, asserted bit-identical (every round
  // overwrites the answers that check reads).
  constexpr int kMarginDevices = 256;
  constexpr int kMarginRounds = 100;
  double margin_single_us = 0.0;
  double margin_batch_us = 0.0;
  {
    const bti::ClosedFormModel model(bti::ClosedFormParameters{});
    const fleet::ServiceState genesis = fleet::ServiceState::genesis(
        kMarginDevices, Volts{12e-3},
        default_seed(SeedStream::kFleetService));
    std::vector<mc::MarginQuery> shard;
    for (const fleet::DeviceAging& device : genesis.devices) {
      mc::MarginQuery q;
      q.delta_vth = device.delta_vth;
      q.margin = genesis.margin;
      shard.push_back(q);
    }
    std::vector<mc::MarginOutlook> batched;
    auto t0 = clock::now();
    for (int r = 0; r < kMarginRounds; ++r) {
      batched = mc::margin_outlook(model, shard);
    }
    margin_batch_us = wall_ms(t0, clock::now()) * 1e3 / kMarginRounds;
    std::vector<mc::MarginOutlook> single(shard.size());
    t0 = clock::now();
    for (int r = 0; r < kMarginRounds; ++r) {
      for (std::size_t d = 0; d < shard.size(); ++d) {
        single[d] = mc::margin_outlook(model, shard[d]);
      }
    }
    margin_single_us =
        wall_ms(t0, clock::now()) * 1e3 / (kMarginRounds * kMarginDevices);
    for (std::size_t d = 0; d < shard.size(); ++d) {
      if (single[d].crosses != batched[d].crosses ||
          single[d].time_to_margin != batched[d].time_to_margin) {
        std::fprintf(stderr,
                     "bench_perf_kernels: batched margin diverged from the "
                     "single query at device %zu\n",
                     d);
        return 1;
      }
    }
  }

  // The timer's own cost (gated) against the host's clock floor (recorded,
  // not gated): an enabled empty ScopedTimer into a scratch histogram and
  // the bare monotonic_ns() pair it brackets.  Best of 3 passes, each
  // kTimerScopes long.
  constexpr int kTimerScopes = 1000000;
  double timer_scope_ns = 0.0;
  double clock_pair_ns = 0.0;
  {
    obs::Histogram scratch;
    std::uint64_t clock_sum_ns = 0;
    const auto per_scope_ns = [](const clock::time_point t0) {
      return wall_ms(t0, clock::now()) * 1e6 / kTimerScopes;
    };
    for (int pass = 0; pass < 3; ++pass) {
      auto t0 = clock::now();
      for (int i = 0; i < kTimerScopes; ++i) {
        const obs::ScopedTimer timer(&scratch);
      }
      const double scope_ns = per_scope_ns(t0);
      t0 = clock::now();
      for (int i = 0; i < kTimerScopes; ++i) {
        const std::uint64_t begin_ns = obs::monotonic_ns();
        clock_sum_ns += obs::monotonic_ns() - begin_ns;
      }
      const double pair_ns = per_scope_ns(t0);
      timer_scope_ns =
          pass == 0 ? scope_ns : std::min(timer_scope_ns, scope_ns);
      clock_pair_ns = pass == 0 ? pair_ns : std::min(clock_pair_ns, pair_ns);
    }
    if (scratch.count() != 3u * kTimerScopes || clock_sum_ns == 0) {
      std::fprintf(stderr, "bench_perf_kernels: timer probe lost scopes\n");
      return 1;
    }
  }

  // The JSON rows the paired gate reads: every kernel timer, then the
  // end-to-end, population, margin and timer summaries.
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench_perf_kernels: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  os << "{\n  \"kernels\": [\n";
  const auto profiles = obs::profile_snapshot();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& p = profiles[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"calls\": %llu, \"total_ns\": "
                  "%llu, \"ns_per_call\": %.1f, \"p50_ns\": %.1f, "
                  "\"p99_ns\": %.1f}%s\n",
                  obs::to_string(p.kernel),
                  static_cast<unsigned long long>(p.calls),
                  static_cast<unsigned long long>(p.total_ns),
                  static_cast<double>(p.total_ns) /
                      static_cast<double>(p.calls),
                  p.p50_ns, p.p99_ns, i + 1 < profiles.size() ? "," : "");
    os << line;
  }
  char tail[640];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"chip5_campaign_wall_ms\": %.1f,\n"
                "  \"chip5_fixed_drive_wall_ms\": %.1f,\n"
                "  \"population_chips\": %d,\n"
                "  \"population_steps\": %d,\n"
                "  \"population_independent_wall_ms\": %.1f,\n"
                "  \"population_batch_wall_ms\": %.3f,\n"
                "  \"population_build_ms\": %.4f,\n"
                "  \"population_speedup_exact\": %.2f,\n"
                "  \"margin_single_us\": %.2f,\n"
                "  \"margin_batch256_us\": %.1f,\n"
                "  \"timer_scope_ns\": %.1f,\n"
                "  \"clock_pair_ns\": %.1f\n}\n",
                campaign_ms, fixed_drive_ms, kPopChips, pop_steps,
                pop_independent_ms, pop_batch_ms, pop_build_ms,
                pop_independent_ms / pop_batch_ms, margin_single_us,
                margin_batch_us, timer_scope_ns, clock_pair_ns);
  os << tail;
  std::printf("wrote %s\n%s", path.c_str(), obs::profile_table().c_str());
  std::printf("chip5 campaign: %.1f ms   fixed drive: %.1f ms\n",
              campaign_ms, fixed_drive_ms);
  std::printf(
      "population (%d chips, %d steps): independent %.1f ms   batch %.3f ms "
      "(%.1fx)   batch build %.4f ms\n",
      kPopChips, pop_steps, pop_independent_ms, pop_batch_ms,
      pop_independent_ms / pop_batch_ms, pop_build_ms);
  std::printf("margin: single %.2f us/query   whole-shard (%d devices) %.1f us\n",
              margin_single_us, kMarginDevices, margin_batch_us);
  std::printf("exp: %s, trap pass: %s\n", util::exp_batch_path(),
              bti::trap_pass_path());
  std::printf("timer: enabled empty scope %.1f ns   clock pair %.1f ns   "
              "(timer above its clocks %.1f ns)\n",
              timer_scope_ns, clock_pair_ns, timer_scope_ns - clock_pair_ns);
  std::printf(
      "checks: trap dVth %.9g V   RO sum %.9g Hz   campaign records %zu   "
      "drive sum %.9g Hz   mc mean dVth %.9g V   population reads %.9g V\n",
      trap_delta_vth, ro_frequency_sum, campaign_records,
      drive_frequency_sum, mc_mean_delta_vth, pop_read_sum);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--json") {
    std::fprintf(stderr, "usage: bench_perf_kernels --json FILE\n");
    return 2;
  }
  return run_workload(argv[2]);
}
