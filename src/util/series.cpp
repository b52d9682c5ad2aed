#include "ash/util/series.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ash {

void Series::append(double t, double value) {
  if (!samples_.empty() && t < samples_.back().t) {
    throw std::invalid_argument("Series::append: time must be non-decreasing");
  }
  samples_.push_back({t, value});
}

double Series::at(double t) const {
  assert(!samples_.empty());
  if (t <= samples_.front().t) return samples_.front().value;
  if (t >= samples_.back().t) return samples_.back().value;
  // Binary search for the first sample with time > t.
  auto it = std::upper_bound(
      samples_.begin(), samples_.end(), t,
      [](double lhs, const Sample& s) { return lhs < s.t; });
  const Sample& hi = *it;
  const Sample& lo = *(it - 1);
  if (hi.t == lo.t) return lo.value;
  const double w = (t - lo.t) / (hi.t - lo.t);
  return lo.value + w * (hi.value - lo.value);
}

Series Series::resampled(std::size_t n) const {
  assert(n >= 2 && !samples_.empty());
  Series out(name_);
  const double t0 = t_begin();
  const double t1 = t_end();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = t0 + (t1 - t0) * static_cast<double>(i) /
                              static_cast<double>(n - 1);
    out.append(t, at(t));
  }
  return out;
}

double Series::t_begin() const {
  assert(!samples_.empty());
  return samples_.front().t;
}

double Series::t_end() const {
  assert(!samples_.empty());
  return samples_.back().t;
}

double Series::min_value() const {
  assert(!samples_.empty());
  return std::min_element(samples_.begin(), samples_.end(),
                          [](const Sample& a, const Sample& b) {
                            return a.value < b.value;
                          })
      ->value;
}

double Series::max_value() const {
  assert(!samples_.empty());
  return std::max_element(samples_.begin(), samples_.end(),
                          [](const Sample& a, const Sample& b) {
                            return a.value < b.value;
                          })
      ->value;
}

bool Series::is_non_decreasing(double eps) const {
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (samples_[i].value < samples_[i - 1].value - eps) return false;
  }
  return true;
}

}  // namespace ash
