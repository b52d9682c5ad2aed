/// ash_lab — command-line front end to the virtual aging laboratory.
///
/// Subcommands:
///   reproduce — the paper reproduction: every figure, table and ablation
///       of DESIGN.md Sec. 4, its heavy work run in parallel on one thread
///       pool (tools/reproduce.cpp), then every paper claim against its
///       band; exits 1 when one fails
///       ash_lab reproduce
///   campaign  — run the paper's Table 1 five-chip campaign, CSV per chip
///       ash_lab campaign [--stages 75] [--out DIR] [--seed N]
///                        [--fault-plan none|representative|harsh]
///                        [--retry N] [--no-watchdog] [--jobs N]
///   stress    — one stress + recovery experiment on one chip
///       ash_lab stress [--stages 75] [--seed N] [--temp 110] [--hours 24]
///                      [--mode dc|ac] [--rec-volts -0.3] [--rec-temp 110]
///                      [--rec-hours 6] [--checkpoint FILE]
///   plan      — cheapest sleep conditions for a recovery target
///       ash_lab plan [--target 0.9] [--budget-hours 6] [--stress-hours 24]
///   population — sweep a chip population through the batch engine
///       ash_lab population [--chips 1024] [--seed N] [--steps 360]
///                          [--temp 110]
///       N chips with log-normal corner spread aged in lockstep under a
///       drifting DC-stress chamber (the bench_perf_kernels population
///       workload); prints the DeltaVth spread and wall time.
///   chipN     — run ONE Table 1 chip of the paper campaign (chip1..chip5)
///       ash_lab chip5 [--stages 75] [--out DIR] [--seed N]
///                     [--fault-plan none|representative|harsh]
///                     [--retry N] [--no-watchdog]
///   multicore — schedule comparison on the 8-core system
///       ash_lab multicore [--years 2] [--cores 6] [--margin-mv 9]
///                         [--fault-plan none|representative|harsh]
///                         [--fault-seed N] [--raw]
///       The two policies run side by side on a pool of one worker per
///       policy (capped at the hardware cores); each system ages its
///       cores serially.  With a fault plan, each policy runs behind the reliability
///       manager (quarantine, failover, telemetry filtering) and the
///       fault/response report is printed; --raw drops the manager to
///       show how an unmanaged policy degrades.
///
/// Observability flags, valid with every subcommand:
///   --trace FILE    record a trace of the run; written as Chrome
///                   trace-event JSON (open in Perfetto / chrome://tracing)
///                   or as JSONL when FILE ends in .jsonl
///   --metrics FILE  write the end-of-run metrics snapshot (key=value lines)
///   --profile       print the per-kernel profile table on exit
///
/// Everything is deterministic under --seed; exit status is non-zero on
/// usage errors.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ash/bti/batch_ensemble.h"
#include "ash/core/metrics.h"
#include "ash/core/planner.h"
#include "ash/fpga/checkpoint.h"
#include "ash/fpga/chip.h"
#include "ash/mc/reliability.h"
#include "ash/mc/system.h"
#include "ash/obs/metrics.h"
#include "ash/obs/profile.h"
#include "ash/obs/trace.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/atomic_file.h"
#include "ash/util/constants.h"
#include "ash/util/flags.h"
#include "ash/util/random.h"
#include "ash/util/table.h"
#include "ash/util/thread_pool.h"
#include "reproduce.h"

namespace {

using namespace ash;

int usage() {
  std::fprintf(
      stderr,
      "usage: ash_lab <reproduce|campaign|chip1..chip5|stress|plan|"
      "population|multicore> [--flags]\n"
      "observability: --trace FILE --metrics FILE --profile\n"
      "see the header of tools/ash_lab.cpp for flag lists\n");
  return 2;
}

/// Flags every subcommand accepts (handled globally in main).
const std::vector<std::string> kObsFlags = {"trace", "metrics", "profile"};

std::vector<std::string> with_obs(std::vector<std::string> known) {
  known.insert(known.end(), kObsFlags.begin(), kObsFlags.end());
  return known;
}

/// Shared campaign runner setup for `campaign` and `chipN`.
tb::RunnerConfig campaign_runner_config(const Flags& flags,
                                        const tb::FaultPlan& plan) {
  tb::RunnerConfig rc =
      plan.ideal() ? tb::RunnerConfig{} : tb::tolerant_runner_config(plan);
  rc.fault_plan = plan;
  if (flags.has("retry")) {
    rc.retry.max_sample_retries = flags.get("retry", 3);
  }
  if (flags.get("no-watchdog", false)) rc.watchdog.enabled = false;
  return rc;
}

/// `--out DIR` (default "."), checked before any simulation: a campaign
/// into a missing directory must fail in milliseconds, not after every
/// chip has run.  Empty when unusable (the error is printed).
std::string out_dir_flag(const Flags& flags) {
  const std::string dir = flags.get("out", std::string("."));
  if (util::writable_directory(dir)) return dir;
  std::fprintf(stderr,
               "ash_lab: --out %s: not an existing writable directory\n",
               dir.c_str());
  return {};
}

int cmd_campaign(const Flags& flags) {
  flags.check_known(with_obs({"stages", "out", "seed", "fault-plan", "retry",
                              "no-watchdog", "jobs"}));
  const std::string out_dir = out_dir_flag(flags);
  if (out_dir.empty()) return usage();
  const int stages = flags.get("stages", 75);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 0x40A0));
  const auto plan =
      tb::FaultPlan::by_name(flags.get("fault-plan", std::string("none")));

  // Every task owns its chip and runner (bit-identical to the serial run);
  // all I/O and the fault-report merge stay on this thread, in chip order.
  const auto cases = tb::paper_campaign();
  const int jobs = flags.get("jobs", 0);
  util::ThreadPool pool(jobs != 0 ? jobs : util::recommended_pool_size(
                                               static_cast<int>(cases.size())));
  const auto results = tb::run_paper_campaign(
      pool, campaign_runner_config(flags, plan), stages, seed);

  tb::FaultReport total_faults;
  Table summary({"chip", "samples", "usable", "fresh f (MHz)",
                 "worst degradation"});
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& tc = cases[ci];
    const auto& result = results[ci];
    const auto& log = result.log;
    total_faults.merge(result.faults);

    const std::string path =
        out_dir + "/campaign_chip" + std::to_string(tc.chip_id) + ".csv";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "ash_lab: cannot write %s\n", path.c_str());
      return 1;
    }
    log.write_csv(os);

    double fresh = 0.0;
    for (const auto& r : log.records()) {
      if (r.usable()) {
        fresh = r.frequency_hz.value();
        break;
      }
    }
    double worst = 0.0;
    for (const auto& r : log.records()) {
      if (!r.usable() || fresh <= 0.0) continue;
      worst = std::max(worst, 1.0 - r.frequency_hz.value() / fresh);
    }
    const auto yield = core::campaign_yield(log);
    summary.add_row({strformat("%d", tc.chip_id),
                     strformat("%zu", log.size()),
                     fmt_percent(yield.usable_fraction(), 1),
                     fmt_fixed(fresh / 1e6, 3), fmt_percent(worst, 2)});
    std::printf("wrote %s\n", path.c_str());
  }
  std::printf("%s", summary.render().c_str());
  if (!total_faults.clean()) std::printf("%s", total_faults.render().c_str());
  total_faults.publish(obs::registry());
  return 0;
}

/// The paper reproduction: every section of DESIGN.md Sec. 4.
int cmd_reproduce(const Flags& flags) {
  flags.check_known(with_obs({}));
  return lab::print_paper_reproduction() ? 0 : 1;
}

/// Run ONE chip of the Table 1 campaign (`ash_lab chip5 ...`) — the
/// single-chip acceptance path for tracing a Fig. 9-style run.
int cmd_chip(const Flags& flags, const std::string& name) {
  flags.check_known(with_obs(
      {"stages", "out", "seed", "fault-plan", "retry", "no-watchdog"}));
  const std::string out_dir = out_dir_flag(flags);
  if (out_dir.empty()) return usage();
  const tb::TestCase* tc = nullptr;
  const auto campaign = tb::paper_campaign();
  for (const auto& candidate : campaign) {
    if (candidate.name == name) tc = &candidate;
  }
  if (tc == nullptr) {
    std::fprintf(stderr, "ash_lab: unknown chip '%s' (chip1..chip%zu)\n",
                 name.c_str(), campaign.size());
    return 2;
  }

  const auto plan =
      tb::FaultPlan::by_name(flags.get("fault-plan", std::string("none")));
  tb::ExperimentRunner runner{campaign_runner_config(flags, plan)};

  fpga::FpgaChip chip(tb::paper_chip_config(
      tc->chip_id, flags.get("stages", 75),
      static_cast<std::uint64_t>(flags.get("seed", 0x40A0))));

  const auto result = runner.run_campaign(chip, *tc);
  const std::string path =
      out_dir + "/campaign_chip" + std::to_string(tc->chip_id) + ".csv";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "ash_lab: cannot write %s\n", path.c_str());
    return 1;
  }
  result.log.write_csv(os);
  std::printf("wrote %s (%zu samples, %s)\n", path.c_str(), result.log.size(),
              result.completed ? "completed" : "aborted");
  if (!result.faults.clean()) {
    std::printf("%s", result.faults.render().c_str());
  }
  result.faults.publish(obs::registry());
  return 0;
}

int cmd_stress(const Flags& flags) {
  flags.check_known(with_obs({"stages", "seed", "temp", "hours", "mode",
                              "rec-volts", "rec-temp", "rec-hours",
                              "checkpoint"}));
  // Validate the checkpoint destination *before* simulating anything: a
  // doomed 24-hour stress run should fail in milliseconds, not after the
  // work is done.
  const std::string ckpt = flags.get("checkpoint", std::string());
  if (!ckpt.empty()) {
    const std::string dir = util::dirname_of(ckpt);
    if (!util::writable_directory(dir)) {
      std::fprintf(stderr,
                   "ash_lab: --checkpoint %s: directory '%s' is missing or "
                   "not writable\n",
                   ckpt.c_str(), dir.c_str());
      return usage();
    }
  }

  fpga::ChipConfig cc;
  cc.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  cc.ro_stages = flags.get("stages", 75);
  fpga::FpgaChip chip(cc);

  const double room = celsius(20.0);
  const double fresh = chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
  std::printf("fresh: %.4f MHz\n", fresh / 1e6);

  const std::string mode = flags.get("mode", std::string("dc"));
  if (mode != "dc" && mode != "ac") {
    std::fprintf(stderr, "ash_lab: --mode must be dc or ac\n");
    return 2;
  }
  const double stress_temp = flags.get("temp", 110.0);
  const double stress_h = flags.get("hours", 24.0);
  chip.evolve(mode == "dc" ? fpga::RoMode::kDcFrozen
                           : fpga::RoMode::kAcOscillating,
              mode == "dc" ? bti::dc_stress(Volts{1.2}, Celsius{stress_temp})
                           : bti::ac_stress(Volts{1.2}, Celsius{stress_temp}),
              Seconds{hours(stress_h)});
  const double stressed = chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
  std::printf("after %.1f h %s stress @%.0f degC: %.4f MHz (-%.2f%%)\n",
              stress_h, mode.c_str(), stress_temp, stressed / 1e6,
              100.0 * (1.0 - stressed / fresh));

  const double rec_h = flags.get("rec-hours", 6.0);
  if (rec_h > 0.0) {
    const double rec_v = flags.get("rec-volts", -0.3);
    const double rec_t = flags.get("rec-temp", 110.0);
    chip.evolve(fpga::RoMode::kSleep, bti::recovery(Volts{rec_v}, Celsius{rec_t}),
                Seconds{hours(rec_h)});
    const double healed = chip.ro_frequency_hz(Volts{1.2}, Kelvin{room}).value();
    std::printf(
        "after %.1f h recovery @%+.2f V/%.0f degC: %.4f MHz (recovered "
        "%.0f%%)\n",
        rec_h, rec_v, rec_t, healed / 1e6,
        100.0 * (healed - stressed) / (fresh - stressed));
  }

  if (!ckpt.empty()) {
    // Atomic temp-file + rename: a crash mid-write can tear the temp file,
    // never a checkpoint someone might later resume from.
    std::ostringstream doc;
    fpga::save_checkpoint(doc, fpga::snapshot(chip));
    try {
      util::atomic_write_file(ckpt, doc.str());
    } catch (const std::system_error& e) {
      std::fprintf(stderr, "ash_lab: cannot write %s: %s\n", ckpt.c_str(),
                   e.what());
      return 1;
    }
    std::printf("checkpoint written to %s\n", ckpt.c_str());
  }
  return 0;
}

/// Sweep an N-chip population through the batch-of-chips engine
/// (DESIGN.md Sec. 13): log-normal corner spread on the per-trap impact
/// scale, aged in lockstep under a drifting DC-stress chamber — the
/// never-repeating-condition regime where the per-chip path repays the
/// full rate computation per chip per step and the batch engine pays it
/// once per trap class.
int cmd_population(const Flags& flags) {
  flags.check_known(with_obs({"chips", "seed", "steps", "temp"}));
  const int chips = flags.get("chips", 1024);
  const int steps = flags.get("steps", 360);
  if (chips < 1 || steps < 1) {
    std::fprintf(stderr, "ash_lab: --chips and --steps must be >= 1\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 0xF1EE7));
  const double temp_c = flags.get("temp", 110.0);

  // One kinetics class: every chip shares (seed, kinetics), differing only
  // in its corner scale on delta_vth_mean_v — exactly the bench workload,
  // so `--profile` here shows the same bti.batch.evolve kernel the CI
  // perf gate tracks.
  std::vector<bti::BatchMemberSpec> specs;
  Rng scales(seed);
  for (int m = 0; m < chips; ++m) {
    bti::TdParameters p = bti::default_td_parameters();
    p.delta_vth_mean_v = p.delta_vth_mean_v * std::exp(scales.normal(0.0, 0.05));
    specs.push_back({p, seed + 1});
  }

  bti::BatchEnsemble batch(specs);
  std::printf("population: %d chip(s), %d class(es), %d trap(s)/chip\n",
              batch.member_count(), batch.class_count(), batch.trap_count(0));

  // Harness wall time around the sweep (reported, never fed back into the
  // physics) — the same legitimacy as the bench timers.
  const auto t0 = std::chrono::steady_clock::now();  // ash-lint: allow(wall-clock): harness timer, never feeds physics
  for (int s = 0; s < steps; ++s) {
    bti::OperatingCondition cond;
    cond.voltage_v = Volts{1.2};
    cond.temperature_k = Kelvin{celsius(temp_c) + 0.011 * s};  // drifting chamber
    cond.gate_stress_duty = 1.0;
    batch.evolve(cond, Seconds{60.0});
  }
  const auto t1 = std::chrono::steady_clock::now();  // ash-lint: allow(wall-clock): harness timer, never feeds physics

  const std::vector<double> shifts = batch.delta_vth_all();
  double lo = shifts.front(), hi = shifts.front(), sum = 0.0;
  for (const double v : shifts) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += v;
  }
  Table t({"metric", "value"});
  t.add_row({"stress time", fmt_fixed(steps * 60.0 / 3600.0, 2) + " h @ " +
                                fmt_fixed(temp_c, 0) + " degC (drifting)"});
  t.add_row({"mean DeltaVth", fmt_fixed(sum / chips * 1e3, 4) + " mV"});
  t.add_row({"min DeltaVth", fmt_fixed(lo * 1e3, 4) + " mV"});
  t.add_row({"max DeltaVth", fmt_fixed(hi * 1e3, 4) + " mV"});
  t.add_row({"sweep wall time",
             fmt_fixed(std::chrono::duration<double, std::milli>(t1 - t0)
                           .count(),
                       1) +
                 " ms"});
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_plan(const Flags& flags) {
  flags.check_known(with_obs({"target", "budget-hours", "stress-hours"}));
  core::PlannerConfig cfg;
  cfg.target_recovered_fraction = flags.get("target", 0.9);
  cfg.max_sleep_s = Seconds{hours(flags.get("budget-hours", 6.0))};
  cfg.t1_equiv_s = Seconds{hours(flags.get("stress-hours", 24.0))};
  const auto plan = core::plan_recovery(cfg);
  if (!plan.feasible) {
    std::printf("no feasible plan: target %.0f%% within %.1f h\n",
                cfg.target_recovered_fraction * 100.0,
                to_hours(cfg.max_sleep_s.value()));
    return 1;
  }
  std::printf(
      "cheapest plan: sleep %.2f h at %.1f degC, %+.2f V (achieves %.1f%%)\n",
      to_hours(plan.sleep_s.value()), plan.temp_c.value(), plan.voltage_v.value(),
      plan.achieved_fraction * 100.0);
  return 0;
}

int cmd_multicore(const Flags& flags) {
  flags.check_known(with_obs({"years", "cores", "margin-mv", "fault-plan",
                              "fault-seed", "raw"}));
  mc::SystemConfig cfg;
  cfg.horizon_s = Seconds{flags.get("years", 2.0) * 365.25 * 86400.0};
  cfg.cores_needed = flags.get("cores", 6);
  cfg.margin_delta_vth_v = Volts{flags.get("margin-mv", 9.0) * 1e-3};

  auto plan =
      mc::CoreFaultPlan::by_name(flags.get("fault-plan", std::string("none")));
  if (flags.has("fault-seed")) {
    plan.seed = static_cast<std::uint64_t>(flags.get("fault-seed", 0));
  }
  const bool raw = flags.get("raw", false);

  // The two scheduling policies run against independent virtual systems;
  // fan them out and merge reports in policy order.
  struct PolicyOutcome {
    mc::SystemResult result;
    mc::ReliabilityReport report;
  };
  util::ThreadPool pool(util::recommended_pool_size(2));
  auto outcomes = pool.parallel_for(2, [&](int i) {
    mc::AllActiveScheduler all;
    mc::HeaterAwareCircadianScheduler circadian;
    mc::Scheduler& base =
        i == 0 ? static_cast<mc::Scheduler&>(all)
               : static_cast<mc::Scheduler&>(circadian);
    mc::ReliabilityConfig rel;
    rel.margin_delta_vth_v = cfg.margin_delta_vth_v;
    PolicyOutcome out;
    mc::ReliabilityManager managed(base, rel, &out.report);
    mc::Scheduler& policy =
        plan.ideal() || raw ? base : static_cast<mc::Scheduler&>(managed);
    out.result = plan.ideal()
                     ? simulate_system(cfg, policy)
                     : simulate_system(cfg, policy, plan, &out.report);
    return out;
  });

  mc::ReliabilityReport total;
  Table t({"policy", "mean aging (mV)", "lifetime (days)",
           "deficit (core-days)", "core deaths"});
  for (const auto& out : outcomes) {
    const auto& r = out.result;
    const std::string horizon_days =
        fmt_fixed(cfg.horizon_s.value() / 86400.0, 0);
    t.add_row({r.scheduler,
               fmt_fixed(r.mean_end_delta_vth_v.value() * 1e3, 2),
               r.margin_exceeded
                   ? fmt_fixed(r.time_to_first_margin_s.value() / 86400.0, 0)
                   : ">" + horizon_days,
               fmt_fixed(r.demand_deficit_core_s.value() / 86400.0, 1),
               strformat("%d", out.report.permanent_deaths)});
    total.merge(out.report);
  }
  std::printf("%s", t.render().c_str());
  if (!plan.ideal()) std::printf("\n%s", total.render().c_str());
  total.publish(obs::registry());
  return 0;
}

int dispatch(const std::string& cmd, const Flags& flags) {
  if (cmd == "reproduce") return cmd_reproduce(flags);
  if (cmd == "campaign") return cmd_campaign(flags);
  if (cmd == "stress") return cmd_stress(flags);
  if (cmd == "plan") return cmd_plan(flags);
  if (cmd == "population") return cmd_population(flags);
  if (cmd == "multicore") return cmd_multicore(flags);
  if (cmd.rfind("chip", 0) == 0) return cmd_chip(flags, cmd);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  obs::TraceBuffer trace;
  std::unique_ptr<obs::TraceWriter> trace_writer;
  try {
    const Flags flags(argc, argv);
    if (flags.positional().empty()) return usage();

    const std::string trace_path = flags.get("trace", std::string());
    const std::string metrics_path = flags.get("metrics", std::string());
    const bool profile = flags.get("profile", false);
    const bool jsonl = trace_path.size() >= 6 &&
                       trace_path.rfind(".jsonl") == trace_path.size() - 6;
    if (!trace_path.empty()) {
      if (jsonl) {
        // JSONL streams to disk as the run goes — a long mission's trace
        // never has to fit in memory.  Chrome JSON needs the whole event
        // list for its enclosing array, so it keeps the buffering sink.
        trace_writer = std::make_unique<obs::TraceWriter>(trace_path);
        if (!trace_writer->ok()) {
          std::fprintf(stderr, "ash_lab: cannot write %s\n",
                       trace_path.c_str());
          return 1;
        }
        obs::set_trace_sink(trace_writer.get());
      } else {
        obs::set_trace_sink(&trace);
      }
    }
    if (profile) obs::enable_profiling(true);

    const int rc = dispatch(flags.positional().front(), flags);
    obs::set_trace_sink(nullptr);

    if (trace_writer) {
      trace_writer->flush();
      if (!trace_writer->ok()) {
        std::fprintf(stderr, "ash_lab: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("trace: %llu event(s) streamed to %s\n",
                  static_cast<unsigned long long>(
                      trace_writer->events_written()),
                  trace_path.c_str());
    } else if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) {
        std::fprintf(stderr, "ash_lab: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      trace.write_chrome_json(os);
      std::printf("trace: %zu event(s) written to %s\n", trace.size(),
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream os(metrics_path);
      if (!os) {
        std::fprintf(stderr, "ash_lab: cannot write %s\n",
                     metrics_path.c_str());
        return 1;
      }
      obs::registry().snapshot().write(os);
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    if (profile) std::printf("%s", obs::profile_table().c_str());
    return rc;
  } catch (const std::invalid_argument& e) {
    // Bad or unknown flags (a typo'd --fault-pan must not run a clean
    // campaign): say what was wrong, show the usage, exit non-zero.
    obs::set_trace_sink(nullptr);
    std::fprintf(stderr, "ash_lab: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    obs::set_trace_sink(nullptr);
    std::fprintf(stderr, "ash_lab: %s\n", e.what());
    return 2;
  }
}
