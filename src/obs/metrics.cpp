#include "ash/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "ash/util/table.h"

namespace ash::obs {

namespace {

/// Inclusive lower edge and width of bucket i, in ns (doubles: the last
/// bucket's upper edge is 2^64).
double bucket_lower_ns(std::size_t i) {
  if (i < 4) return static_cast<double>(i);
  const std::size_t octave = i / 4 - 1;
  return static_cast<double>((4 + i % 4) * (std::uint64_t{1} << octave));
}

double bucket_width_ns(std::size_t i) {
  return i < 4 ? 1.0 : static_cast<double>(std::uint64_t{1} << (i / 4 - 1));
}

/// The rendered quantile keys of a non-empty histogram, in seconds.
constexpr std::pair<const char*, double> kQuantileKeys[] = {
    {".p50=", 0.50}, {".p95=", 0.95}, {".p99=", 0.99}};

double bucket_quantile_ns(const std::vector<std::uint64_t>& buckets,
                          double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0 || std::isnan(p)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  p = std::clamp(p, 0.0, 1.0);
  // Target rank in [1, total]: p = 0 asks for the smallest observation,
  // p = 1 for the largest, everything else linear in between.
  const double target = std::max(1.0, p * static_cast<double>(total));
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = cum;
    cum += static_cast<double>(buckets[i]);
    if (cum + 1e-9 < target) continue;
    const double frac = (target - before) / static_cast<double>(buckets[i]);
    return bucket_lower_ns(i) + frac * bucket_width_ns(i);
  }
  return std::numeric_limits<double>::quiet_NaN();  // unreachable
}

}  // namespace

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

double Histogram::quantile_ns(double p) const {
  return bucket_quantile_ns(bucket_counts(), p);
}

double MetricsSnapshot::HistogramData::quantile_ns(double p) const {
  return bucket_quantile_ns(buckets, p);
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

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
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
    d.buckets = h->bucket_counts();
    for (const std::uint64_t b : d.buckets) d.count += b;
    d.sum_ns = h->sum_ns();
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
       << ".sum=" << strformat("%g", h.sum_ns * 1e-9);
    if (h.count == 0) continue;
    for (const auto& [key, p] : kQuantileKeys) {
      os << ' ' << h.name << key << strformat("%g", h.quantile_ns(p) * 1e-9);
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
    os << h.name << ".sum=" << strformat("%.9g", h.sum_ns * 1e-9) << '\n';
    for (const auto& [key, p] : kQuantileKeys) {
      if (h.count == 0) break;  // quantile keys only when non-empty
      os << h.name << key << strformat("%.9g", h.quantile_ns(p) * 1e-9)
         << '\n';
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
