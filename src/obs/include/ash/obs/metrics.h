#pragma once

/// \file metrics.h
/// Metrics registry: counters, gauges and duration histograms.
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

#include <array>
#include <atomic>
#include <bit>
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

/// Lock-free duration histogram in integer nanoseconds, one fixed layout:
/// 4 linear sub-buckets per power of two.  0-3 ns get buckets 0-3; from
/// 4 ns on, the exponent bits pick the octave and the two bits below the
/// leading one pick the sub-bucket, so every bucket is at most 25% wide
/// relative to its lower edge and every `uint64_t` has one of the 252
/// buckets — nothing is clamped and nothing allocates.
class Histogram {
 public:
  static constexpr int kBuckets = 252;

  static constexpr int bucket_index(std::uint64_t ns) {
    if (ns < 4) return static_cast<int>(ns);
    const int e = std::bit_width(ns) - 1;
    return 4 * (e - 1) + static_cast<int>((ns >> (e - 2)) & 3);
  }

  /// The one observe entry point: two relaxed `fetch_add`s.
  void observe_ns(std::uint64_t ns) {
    buckets_[static_cast<std::size_t>(bucket_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Observations so far (the bucket total).
  std::uint64_t count() const;
  std::uint64_t sum_ns() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> bucket_counts() const;
  /// Forget every observation (relaxed stores; not atomic as a whole).
  void reset();

  /// Quantile estimate in ns: find the bucket where the cumulative count
  /// crosses rank `max(1, p * count)` and interpolate linearly inside it
  /// (the sub-buckets are linear).  The estimate never leaves the edges of
  /// an occupied bucket; a one-sample histogram reports the upper edge of
  /// its sample's bucket, at most 25% above the sample from 4 ns on.  NaN
  /// when empty or `p` is NaN; `p` itself is clamped to [0, 1].
  double quantile_ns(double p) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Point-in-time copy of a registry, for rendering and assertions.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::vector<std::uint64_t> buckets;

    /// Histogram::quantile_ns of these buckets.
    double quantile_ns(double p) const;
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
  /// Non-empty histograms carry .p50/.p95/.p99 quantile estimates; a
  /// histogram's .sum and quantiles render in seconds.
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
  Histogram& histogram(std::string_view name);

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

/// The one RAII timer: observes the scope's host duration, in ns, into a
/// histogram.  The histogram pointer is the on/off switch: with
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
      histogram_->observe_ns(monotonic_ns() - begin_ns_);
    }
  }

 private:
  Histogram* histogram_;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace ash::obs
