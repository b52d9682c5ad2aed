#pragma once

/// \file clock.h
/// The one host monotonic clock: timers, trace wall stamps, the flight
/// recorder and the fleet's deadlines all read it here (the `wall-clock`
/// lint rule keeps other clock reads out of src/).  A vDSO read with no
/// lock or allocation, so the fatal-signal flight dump may call it too.

#include <chrono>
#include <cstdint>

namespace ash::obs {

/// Host monotonic time in nanoseconds since an arbitrary epoch.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The same clock in milliseconds, for I/O deadlines, heartbeats and
/// restart backoffs (supervision-layer time, never part of a payload).
inline double monotonic_ms() {
  return static_cast<double>(monotonic_ns()) / 1e6;
}

}  // namespace ash::obs
