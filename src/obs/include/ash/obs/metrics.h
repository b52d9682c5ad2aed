#pragma once

/// \file metrics.h
/// Metrics registry: counters, gauges and log-scale histograms.
///
/// Registration (name lookup) takes a mutex and is meant to happen once,
/// at setup; the returned references are stable for the registry's
/// lifetime, and every update through them is a relaxed atomic — the hot
/// path is lock-free and wait-free.  A `snapshot()` reads everything at
/// once into a plain value type that can be rendered, diffed in CI logs
/// (`one_line()`), or written as `key=value` lines.
///
/// The fault/reliability reports of the tb and mc layers publish their
/// final tallies into a registry via `FaultReport::publish` /
/// `ReliabilityReport::publish`, so the metrics snapshot an operator
/// exports and the reports the benches print can never disagree — they
/// are the same integers.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ash/obs/clock.h"

namespace ash::obs {

/// Monotonic (or published-snapshot) integer metric.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Overwrite with an externally accumulated tally (report publishing).
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value floating-point metric.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scale bucket layout: `buckets_per_decade` buckets per decade
/// between `min` and `max`.  Values below `min` land in bucket 0, values
/// at or above `max` in the last bucket — nothing is ever dropped.
struct HistogramOptions {
  double min = 1e-9;
  double max = 1e3;
  int buckets_per_decade = 4;
};

/// Quantile estimate from a log-scale bucket layout: find the bucket where
/// the cumulative count crosses `p * total`, then interpolate *in log
/// space* within it (the buckets are log-uniform, so log interpolation is
/// the layout-consistent choice).  The estimate is clamped to
/// [options.min, options.max] — the first bucket also holds values below
/// `min` and the last also holds values at or above `max`, so the edges
/// are the tightest honest bounds.  Returns NaN when the histogram is
/// empty or `p` is NaN; `p` itself is clamped to [0, 1].
double histogram_quantile(const HistogramOptions& options,
                          const std::vector<std::uint64_t>& buckets, double p);

/// Lock-free histogram with fixed log-scale buckets.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void observe(double value);

  int bucket_count() const { return static_cast<int>(buckets_.size()); }
  /// Bucket index `value` falls into (clamped; NaN observes into bucket 0).
  int bucket_index(double value) const;
  /// Inclusive lower bound of bucket i.
  double bucket_lower_bound(int i) const;

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::vector<std::uint64_t> bucket_counts() const;
  const HistogramOptions& options() const { return options_; }
  /// Forget every observation (relaxed stores; not atomic as a whole).
  void reset();

  /// Log-interpolated quantile estimate of the observed values (NaN when
  /// empty).  See histogram_quantile for the exact semantics.
  double quantile(double p) const {
    return histogram_quantile(options_, bucket_counts(), p);
  }

 private:
  HistogramOptions options_;
  double log10_min_ = 0.0;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of a registry, for rendering and assertions.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    HistogramOptions options;
    std::vector<std::uint64_t> buckets;

    double quantile(double p) const {
      return histogram_quantile(options, buckets, p);
    }
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;  // sorted
  std::vector<std::pair<std::string, double>> gauges;           // sorted
  std::vector<HistogramData> histograms;                        // sorted

  /// Counter value by name (0 when absent).
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value by name (NaN when absent).
  double gauge(std::string_view name) const;

  /// Copy holding only the metrics whose name starts with `prefix` (the
  /// scrape-channel filter; "" keeps everything).
  MetricsSnapshot filtered(std::string_view prefix) const;

  /// Single-line `k=v k=v ...` dump (sorted), for diffable CI logs.
  /// Non-empty histograms carry .p50/.p95/.p99 quantile estimates.
  std::string one_line() const;
  /// `key=value` lines, one metric per line (histograms expand to
  /// .count/.sum/.p50/.p95/.p99/.bucketN lines).
  void write(std::ostream& os) const;
  std::string render() const;
};

/// Named metric owner.  Thread-safe; returned references remain valid for
/// the registry's lifetime.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, HistogramOptions options = {});

  MetricsSnapshot snapshot() const;
  /// Drop every metric (tests and multi-run tools).
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide default registry (what `ash_lab --metrics` snapshots).
Registry& registry();

/// The one RAII timer: observes the scope's host duration, in *seconds*,
/// into a histogram.  The histogram pointer is the on/off switch: with
/// nullptr the timer does nothing — no clock read, one branch (enforced by
/// tests/obs/overhead_test.cpp) — which is how uninstrumented request
/// paths and unprofiled kernels (`kernel_histogram`, profile.h) stay free.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) begin_ns_ = monotonic_ns();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      histogram_->observe(static_cast<double>(monotonic_ns() - begin_ns_) *
                          1e-9);
    }
  }

 private:
  Histogram* histogram_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace ash::obs
