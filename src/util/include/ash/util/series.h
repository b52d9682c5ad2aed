#pragma once

/// \file series.h
/// Time-series container shared by the measurement, modeling and reporting
/// layers.  A `Series` is an ordered list of (time, value) samples — e.g.
/// RO-frequency degradation vs. time, recovered delay vs. time — with the
/// small set of operations the experiment pipeline needs: interpolation,
/// resampling, pointwise arithmetic and summary statistics.

#include <cstddef>
#include <string>
#include <vector>

namespace ash {

/// One (time, value) sample.  Time is in seconds, value unit depends on the
/// series (fraction, ns, volts, ...).
struct Sample {
  double t = 0.0;
  double value = 0.0;
};

/// Ordered time series.  Invariant: samples are sorted by non-decreasing t
/// (enforced by `append`, asserted by `validate`).
class Series {
 public:
  Series() = default;
  explicit Series(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }
  const std::vector<Sample>& samples() const& { return samples_; }
  // Calling samples() on a temporary (e.g. `s.resampled(n).samples()`)
  // would dangle in a range-for; forbid it at compile time.
  const std::vector<Sample>& samples() const&& = delete;

  const Sample& front() const { return samples_.front(); }
  const Sample& back() const { return samples_.back(); }

  /// Append a sample; t must be >= the last appended t.
  void append(double t, double value);

  /// Linear interpolation at time t.  Clamps to the end values outside the
  /// sampled range.  Precondition: non-empty.
  double at(double t) const;

  /// Resample onto a uniform grid of n points spanning [t_begin(), t_end()].
  Series resampled(std::size_t n) const;

  /// Pointwise transform: value -> f(value), times untouched.
  template <typename F>
  Series mapped(F&& f) const {
    Series out(name_);
    out.samples_.reserve(samples_.size());
    for (const auto& s : samples_) out.samples_.push_back({s.t, f(s.value)});
    return out;
  }

  double t_begin() const;
  double t_end() const;
  double min_value() const;
  double max_value() const;

  /// True if values never decrease (within tolerance eps) with time.
  bool is_non_decreasing(double eps = 0.0) const;

 private:
  std::string name_;
  std::vector<Sample> samples_;
};

}  // namespace ash
