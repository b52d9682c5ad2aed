#pragma once

/// \file margin.h
/// Margin-crossing projection: "given this duty cycle, when does this
/// device cross its margin?" — the fleet service's headline query
/// (ROADMAP item 1), answered with the paper's closed-form BTI law.
///
/// The device's *current* aging comes from telemetry (the silicon
/// odometer via `ReliabilityManager::filtered_delta_vth`, or the fleet
/// service's durable per-device estimate); the *future* comes from the
/// stateless `bti::ClosedFormModel`.  The projection inverts the monotone
/// stress law to find the stress-equivalent age t0 that reproduces the
/// current DeltaVth under the queried condition, then bisects for the
/// first instant the projected shift reaches the margin.  Everything is
/// closed-form + bisection to its floating-point fixed point, capped at
/// 200 steps — bit-deterministic, which is what lets two fleet daemons
/// (one chaos-ridden, one not) answer the same query with identical bytes.
///
/// The law is built once per query (`bti::ClosedFormModel::stress_law`),
/// so each bisection step is one `log1p`.  The bisection stops as soon as
/// `mid == hi`, or `mid == lo` with `lo > 0`: from then on a 200-step loop
/// could never move `hi`, so the answer is the bits the full loop returns.
/// `hi` always satisfies law(hi) >= target (the caller checked the ceiling
/// and the horizon with the same law), and `lo > 0` was set only because
/// law(lo) < target, so re-evaluating either endpoint re-takes the branch
/// that leaves it in place.  `lo == 0` with `mid == 0` would need `hi` at
/// or below the smallest subnormal, which 200 halvings from any `hi` the
/// projection bisects (>= 6e-42) never reach; the loop simply continues
/// there, as the full loop would.

#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/util/units.h"

namespace ash::mc {

/// One margin-crossing question.
struct MarginQuery {
  /// Device's current threshold-voltage shift (odometer estimate).
  Volts delta_vth{0.0};
  /// Aging budget; default matches ReliabilityConfig::margin_delta_vth_v.
  Volts margin{12e-3};
  /// Projected mission schedule: switching duty in [0, 1] at (vdd, temp).
  double duty = 0.5;
  Volts vdd{1.2};
  Celsius temp{80.0};
  /// Search horizon; the answer is right-censored here.
  Seconds horizon{10.0 * 365.25 * 24.0 * 3600.0};
};

/// The projection's answer.
struct MarginOutlook {
  /// True when the projected shift reaches the margin within the horizon.
  bool crosses = false;
  /// First time the margin is reached (== horizon when !crosses; 0 when
  /// the device is already past its margin).
  Seconds time_to_margin{0.0};
};

/// Project the query forward under the closed-form stress law.  Throws
/// std::invalid_argument on a malformed query (negative margin/horizon,
/// duty outside [0, 1], non-finite fields).
MarginOutlook margin_outlook(const bti::ClosedFormModel& model,
                             const MarginQuery& query);

/// Batched projection — the whole-shard form of the query ("when does
/// every device of this shard cross, under one mission schedule?").  The
/// per-schedule work (the stress law and its kMaxProjectSeconds ceiling)
/// is rebuilt only when a query's (duty, vdd, temp) differs from the
/// previous query's, so a one-schedule shard builds it once; the
/// per-device bisections are the single call's, so each element of the
/// result is bit-identical to margin_outlook(model, queries[i]).
/// Validates every query before projecting any (all-or-nothing on
/// malformed input).
std::vector<MarginOutlook> margin_outlook(
    const bti::ClosedFormModel& model, const std::vector<MarginQuery>& queries);

}  // namespace ash::mc
