#include "ash/obs/profile.h"

#include "ash/util/table.h"

namespace ash::obs {

const char* to_string(Kernel kernel) {
  switch (kernel) {
    case Kernel::kTrapEnsembleEvolve: return "bti.trap_ensemble.evolve";
    case Kernel::kRoDelayEval: return "fpga.ro.delay_eval";
    case Kernel::kTbPhaseAttempt: return "tb.runner.phase_attempt";
    case Kernel::kMcInterval: return "mc.system.interval";
    case Kernel::kMcThermalSolve: return "mc.thermal.solve";
    case Kernel::kMcSchedDecide: return "mc.sched.decide";
    case Kernel::kMcFaultSample: return "mc.fault.sample";
    case Kernel::kMcTelemetry: return "mc.telemetry";
    case Kernel::kBtiBatchEvolve: return "bti.batch.evolve";
    case Kernel::kCount: break;
  }
  return "unknown";
}

namespace detail {
std::array<Histogram, kKernelCount> g_kernel_histograms;
}  // namespace detail

void enable_profiling(bool on) {
  detail::g_profiling.store(on, std::memory_order_relaxed);
}

void reset_profile() {
  for (Histogram& h : detail::g_kernel_histograms) h.reset();
}

std::vector<KernelProfile> profile_snapshot() {
  std::vector<KernelProfile> out;
  for (int k = 0; k < kKernelCount; ++k) {
    const Histogram& h =
        detail::g_kernel_histograms[static_cast<std::size_t>(k)];
    const std::uint64_t calls = h.count();
    if (calls == 0) continue;
    KernelProfile p;
    p.kernel = static_cast<Kernel>(k);
    p.calls = calls;
    p.total_ns = h.sum_ns();
    p.p50_ns = h.quantile_ns(0.50);
    p.p99_ns = h.quantile_ns(0.99);
    out.push_back(p);
  }
  return out;
}

std::string profile_table() {
  const auto profiles = profile_snapshot();
  if (profiles.empty()) {
    return "profile: no instrumented kernel ran (is profiling enabled?)\n";
  }
  double total_ns = 0.0;
  for (const auto& p : profiles) total_ns += static_cast<double>(p.total_ns);

  Table t({"kernel", "calls", "total (ms)", "ns/call", "p50 (ns)", "p99 (ns)",
           "share"});
  for (const auto& p : profiles) {
    const double ns = static_cast<double>(p.total_ns);
    t.add_row({to_string(p.kernel), strformat("%llu",
                   static_cast<unsigned long long>(p.calls)),
               fmt_fixed(ns / 1e6, 2),
               fmt_fixed(ns / static_cast<double>(p.calls), 0),
               fmt_fixed(p.p50_ns, 0), fmt_fixed(p.p99_ns, 0),
               fmt_percent(total_ns > 0.0 ? ns / total_ns : 0.0, 1)});
  }
  return t.render();
}

}  // namespace ash::obs
