#pragma once

/// \file units.h
/// Zero-cost strong types for the physical quantities that cross libash
/// API boundaries: seconds, volts, kelvin, degrees Celsius and hertz.
///
/// The BTI physics (Eqs. (1)-(13) of the paper) mixes seconds, volts and
/// kelvin through long call chains; before this header the unit of every
/// `double` parameter lived only in a doxygen comment and a `_s`/`_v`/`_k`
/// suffix.  A strong type turns a volts-for-seconds argument swap into a
/// compile error while costing nothing at runtime: each type is a trivially
/// copyable wrapper around one `double`, passed and returned in the same
/// SSE register as the raw value, and every operation below is a `constexpr`
/// identity over the wrapped arithmetic — adopting these types is bit-exact
/// by construction.
///
/// Conventions:
///   * construction is explicit (`Volts{1.2}`), never implicit from
///     `double`;
///   * `.value()` unwraps for internal math (implementation files work in
///     raw doubles exactly as before);
///   * cross-unit conversions are named free functions (`to_kelvin`,
///     `to_celsius`, `hours`, `minutes`) using the very same constants as
///     `ash/util/constants.h`, so converted values are bit-identical to the
///     pre-units code paths;
///   * the five unit names are hoisted into namespace `ash` for signature
///     brevity; the helpers stay in `ash::units` to avoid colliding with
///     the raw-double helpers in constants.h.
///
/// Enforcement: `tools/ash_lint.py` rule `raw-double-api` fails the build
/// when a unit-suffixed `double` parameter appears in a public header of
/// the adopted modules (bti, fpga, tb, mc).

#include "ash/util/constants.h"

namespace ash::units {

namespace detail {

/// One physical dimension.  `Tag` distinguishes dimensions at compile time;
/// the wrapped representation is always a double in the library's canonical
/// unit for that dimension (s, V, K, degC, Hz).
template <class Tag>
struct Quantity {
  constexpr Quantity() = default;
  explicit constexpr Quantity(double value) : value_(value) {}

  /// Unwrap to the canonical-unit double.
  constexpr double value() const { return value_; }

  // Same-dimension arithmetic (offsets, sums of durations, ...).
  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator-(Quantity a) { return Quantity{-a.value_}; }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity{s * a.value_};
  }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity{a.value_ * s};
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity{a.value_ / s};
  }
  /// Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }

  friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.value_ == b.value_;
  }
  friend constexpr bool operator!=(Quantity a, Quantity b) {
    return a.value_ != b.value_;
  }
  friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.value_ < b.value_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.value_ <= b.value_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.value_ > b.value_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.value_ >= b.value_;
  }

 private:
  double value_ = 0.0;
};

}  // namespace detail

/// Duration or time constant, in seconds (the internal time unit).
using Seconds = detail::Quantity<struct SecondsTag>;
/// Electric potential, in volts.
using Volts = detail::Quantity<struct VoltsTag>;
/// Absolute temperature, in kelvin.
using Kelvin = detail::Quantity<struct KelvinTag>;
/// Temperature on the Celsius scale (chamber setpoints, Table 1 labels).
using Celsius = detail::Quantity<struct CelsiusTag>;
/// Frequency, in hertz.
using Hertz = detail::Quantity<struct HertzTag>;

/// Celsius -> kelvin, bit-identical to `ash::celsius()`.
constexpr Kelvin to_kelvin(Celsius c) {
  return Kelvin{c.value() + kCelsiusToKelvin};
}

/// Kelvin -> Celsius, bit-identical to `ash::to_celsius()`.
constexpr Celsius to_celsius(Kelvin k) {
  return Celsius{k.value() - kCelsiusToKelvin};
}

/// Hours -> Seconds, bit-identical to `ash::hours()`.
constexpr Seconds hours(double h) { return Seconds{h * kSecondsPerHour}; }

/// Minutes -> Seconds.
constexpr Seconds minutes(double m) { return Seconds{m * 60.0}; }

/// Period -> frequency (f = 1 / T).
constexpr Hertz frequency_of(Seconds period) {
  return Hertz{1.0 / period.value()};
}

}  // namespace ash::units

namespace ash {

// The unit names appear in nearly every public signature of bti/fpga/tb/mc;
// hoist them so headers read `Volts vdd` rather than `units::Volts vdd`.
using units::Celsius;
using units::Hertz;
using units::Kelvin;
using units::Seconds;
using units::Volts;

}  // namespace ash
