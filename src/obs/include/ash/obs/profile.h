#pragma once

/// \file profile.h
/// Per-kernel timing histograms for the hot-path kernels.
///
/// The ROADMAP north star ("as fast as the hardware allows") needs to
/// know where simulated wall-clock time actually goes before any perf PR
/// can be honest.  Each instrumented kernel owns one enum-indexed duration
/// `Histogram` (integer ns, the one fixed layout) that an
/// `obs::ScopedTimer` feeds, so every row carries a call count, an exact
/// ns total and p50/p99.  With profiling off (the default)
/// `kernel_histogram` returns nullptr after one relaxed load, and the
/// timer costs that load and a predictable branch, no clock reads
/// (enforced by tests/obs/overhead_test.cpp).
///
/// Enable with `enable_profiling(true)` (or `ash_lab --profile` /
/// `bench_perf_kernels`), read back with `profile_snapshot()` or the
/// rendered `profile_table()`.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ash/obs/metrics.h"

namespace ash::obs {

/// Instrumented kernels.  Keep `to_string` in sync when extending.
enum class Kernel : int {
  kTrapEnsembleEvolve = 0,  ///< bti: one trap-ensemble aging step
  kRoDelayEval,             ///< fpga: one RO period/frequency evaluation
  kTbPhaseAttempt,          ///< tb: one phase attempt of a campaign
  kMcInterval,              ///< mc: one scheduling interval (whole body)
  kMcThermalSolve,          ///< mc: one steady-state thermal solve
  kMcSchedDecide,           ///< mc: one scheduler policy decision
  kMcFaultSample,           ///< mc: fault sampling + telemetry corruption
  kMcTelemetry,             ///< mc: margin bookkeeping + trace recording
  kBtiBatchEvolve,          ///< bti: one whole-population batch aging step
  kCount,                   // sentinel
};

const char* to_string(Kernel kernel);

inline constexpr int kKernelCount = static_cast<int>(Kernel::kCount);

namespace detail {
inline std::atomic<bool> g_profiling{false};
extern std::array<Histogram, kKernelCount> g_kernel_histograms;
}  // namespace detail

void enable_profiling(bool on);
void reset_profile();

/// The kernel's histogram while profiling is on, nullptr (a free
/// `ScopedTimer`) while it is off:
///   const obs::ScopedTimer timer(obs::kernel_histogram(Kernel::kX));
inline Histogram* kernel_histogram(Kernel kernel) {
  return detail::g_profiling.load(std::memory_order_relaxed)
             ? &detail::g_kernel_histograms[static_cast<std::size_t>(kernel)]
             : nullptr;
}

/// One kernel's aggregate.
struct KernelProfile {
  Kernel kernel = Kernel::kTrapEnsembleEvolve;
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  /// Per-call quantile estimates from the kernel's histogram.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Aggregates of every kernel that recorded at least one call.
std::vector<KernelProfile> profile_snapshot();

/// Rendered per-kernel table (calls, total ms, ns/call, p50, p99, share of
/// the instrumented total) — what `ash_lab --profile` prints.
std::string profile_table();

}  // namespace ash::obs
