#include "ash/obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ash/util/table.h"

namespace ash::obs {

Histogram::Histogram(HistogramOptions options) : options_(options) {
  if (!(options_.min > 0.0) || !(options_.max > options_.min) ||
      options_.buckets_per_decade < 1) {
    throw std::invalid_argument(
        "HistogramOptions: need 0 < min < max and buckets_per_decade >= 1");
  }
  log10_min_ = std::log10(options_.min);
  const double decades = std::log10(options_.max) - log10_min_;
  const int n = static_cast<int>(
      std::ceil(decades * options_.buckets_per_decade - 1e-9));
  buckets_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(std::max(1, n)));
}

int Histogram::bucket_index(double value) const {
  if (!(value > options_.min)) return 0;  // also catches NaN
  const int idx = static_cast<int>(
      std::floor((std::log10(value) - log10_min_) *
                 options_.buckets_per_decade));
  return std::clamp(idx, 0, bucket_count() - 1);
}

double Histogram::bucket_lower_bound(int i) const {
  return std::pow(
      10.0, log10_min_ + static_cast<double>(i) / options_.buckets_per_decade);
}

void Histogram::observe(double value) {
  buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS accumulate (atomic<double>::fetch_add is C++20 but spotty
  // across standard libraries; the loop is equivalent and portable).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double histogram_quantile(const HistogramOptions& options,
                          const std::vector<std::uint64_t>& buckets,
                          double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0 || std::isnan(p)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  p = std::clamp(p, 0.0, 1.0);
  // Target rank in [1, total]: p = 0 asks for the smallest observation,
  // p = 1 for the largest, everything else linear in between.
  const double target =
      std::max(1.0, p * static_cast<double>(total));
  const double log10_min = std::log10(options.min);
  const double log10_max = std::log10(options.max);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = cum;
    cum += static_cast<double>(buckets[i]);
    if (cum + 1e-9 < target) continue;
    // Log-interpolate within the bucket; the first/last buckets clamp to
    // [min, max] because they also absorb out-of-range observations.
    const double frac = (target - before) / static_cast<double>(buckets[i]);
    const double lo = std::min(
        log10_min + static_cast<double>(i) / options.buckets_per_decade,
        log10_max);
    const double hi = std::min(
        log10_min + static_cast<double>(i + 1) / options.buckets_per_decade,
        log10_max);
    return std::pow(10.0, lo + frac * (hi - lo));
  }
  return options.max;  // unreachable: cum == total >= target by the end
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               HistogramOptions options) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(options))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData d;
    d.name = name;
    d.count = h->count();
    d.sum = h->sum();
    d.options = h->options();
    d.buckets = h->bucket_counts();
    snap.histograms.push_back(std::move(d));
  }
  return snap;
}

void Registry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [k, v] : counters) {
    if (k == name) return v;
  }
  return 0;
}

double MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [k, v] : gauges) {
    if (k == name) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

MetricsSnapshot MetricsSnapshot::filtered(std::string_view prefix) const {
  if (prefix.empty()) return *this;
  MetricsSnapshot out;
  for (const auto& kv : counters) {
    if (kv.first.compare(0, prefix.size(), prefix) == 0) {
      out.counters.push_back(kv);
    }
  }
  for (const auto& kv : gauges) {
    if (kv.first.compare(0, prefix.size(), prefix) == 0) {
      out.gauges.push_back(kv);
    }
  }
  for (const auto& h : histograms) {
    if (h.name.compare(0, prefix.size(), prefix) == 0) {
      out.histograms.push_back(h);
    }
  }
  return out;
}

std::string MetricsSnapshot::one_line() const {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ' ';
    first = false;
  };
  for (const auto& [k, v] : counters) {
    sep();
    os << k << '=' << v;
  }
  for (const auto& [k, v] : gauges) {
    sep();
    os << k << '=' << strformat("%g", v);
  }
  for (const auto& h : histograms) {
    sep();
    os << h.name << ".count=" << h.count << ' ' << h.name
       << ".sum=" << strformat("%g", h.sum);
    if (h.count > 0) {
      os << ' ' << h.name << ".p50=" << strformat("%g", h.quantile(0.50))
         << ' ' << h.name << ".p95=" << strformat("%g", h.quantile(0.95))
         << ' ' << h.name << ".p99=" << strformat("%g", h.quantile(0.99));
    }
  }
  return os.str();
}

void MetricsSnapshot::write(std::ostream& os) const {
  for (const auto& [k, v] : counters) os << k << '=' << v << '\n';
  for (const auto& [k, v] : gauges) {
    os << k << '=' << strformat("%.9g", v) << '\n';
  }
  for (const auto& h : histograms) {
    os << h.name << ".count=" << h.count << '\n';
    os << h.name << ".sum=" << strformat("%.9g", h.sum) << '\n';
    if (h.count > 0) {
      os << h.name << ".p50=" << strformat("%.9g", h.quantile(0.50)) << '\n';
      os << h.name << ".p95=" << strformat("%.9g", h.quantile(0.95)) << '\n';
      os << h.name << ".p99=" << strformat("%.9g", h.quantile(0.99)) << '\n';
    }
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // sparse: only occupied buckets
      os << h.name << ".bucket" << i << '=' << h.buckets[i] << '\n';
    }
  }
}

std::string MetricsSnapshot::render() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace ash::obs
