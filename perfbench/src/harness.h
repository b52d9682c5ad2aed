#pragma once

/// \file harness.h
/// What every workload of the benchmark shares: the tail-percentile rule,
/// in-memory spans with self time, output checks, host diagnostics and the
/// result line the benchmark prints last.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- percentiles -----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that leaves
/// at least 10 of `n` samples beyond it; 0 when even p50 does not.
double tail_percentile(std::size_t n);

/// Value at percentile `p` after checking that the percentile rule allows
/// it for this many samples.  Throws std::logic_error, stating the sample
/// count, when it does not: a workload sized too small for the tail its
/// metric names is a benchmark bug.
double checked_percentile(const std::vector<double>& values, double p,
                          std::string_view what);

// --- spans -----------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  const char* name = "";  ///< static string: "<layer>.<operation>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
};

/// In-memory span log of one traced run.  Spans nest by call order (one
/// thread); nothing is written until `write_jsonl` at the end of the run.
class Tracer {
 public:
  int begin(const char* name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, index-aligned with spans().
  std::vector<std::int64_t> self_ns() const;
  /// Self times (ns) of every span called `name`, in recording order.
  std::vector<double> self_ns_of(std::string_view name) const;
  /// One JSON object per line: id, name, start_ns, end_ns, parent, self_ns.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// RAII span; a null tracer records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

// --- timing fixed work -----------------------------------------------------

/// Fixed work made of units of many kinds, each kind the same work repeated
/// (one step of the population schedule per pass, one block of 100 calls
/// per fleet daemon, one chip's campaign per round).  Its time is the sum
/// over kinds of (units done x fastest unit of the kind).
///
/// Why the fastest: on a shared host another tenant's load slows this
/// thread by up to 1.6x in stretches of a fraction of a second to minutes,
/// and the share of slowed time drifts from run to run.  A total or a
/// median follows that share; the fastest of several short repeats of the
/// same work hardly does, because some repeat almost always runs unslowed.
class UnitTimes {
 public:
  void add(int kind, double wall_s, double cpu_s);
  double wall_s() const;
  double cpu_s() const;

 private:
  std::vector<std::vector<double>> wall_;
  std::vector<std::vector<double>> cpu_;
};

/// CPU seconds of this process (ns resolution) and of another process of
/// the same user, e.g. a forked daemon; 0 when the clock is unavailable.
double process_cpu_s();
double other_process_cpu_s(int pid);

// --- output checks ---------------------------------------------------------

/// Operations attempted and the ones whose output check missed.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> misses;

  void attempt(std::uint64_t operations = 1) { attempted += operations; }
  /// Check one attempted operation's output; a miss fails it.
  void expect(bool ok, const std::string& what);
  bool all_passed() const { return failed == 0; }
};

/// Distance in representable doubles between two finite same-sign values.
std::uint64_t ulp_distance(double a, double b);

// --- host ------------------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat (all zero when unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of CPU time stolen by the hypervisor between two readings.
double steal_share(const CpuTicks& before, const CpuTicks& after);
/// "nproc=N loadavg=a b c" for the run log.
std::string host_summary();

/// Peak resident set of this process, MiB.
double process_peak_rss_mb();

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Result {
  Checks checks;
  /// The metrics of the JSON result line.
  std::vector<Metric> metrics;
  /// Printed beside them only: sample counts and figures the other mode
  /// reports.
  std::vector<Metric> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Result& result);

/// Directory for the run's scratch files and trace output, inside the
/// working directory (created on demand).
std::string work_dir();

}  // namespace perfbench
