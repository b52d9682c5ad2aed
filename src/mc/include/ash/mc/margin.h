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
///
/// **Certified bracket.**  Most of a bisection's mids are far from the
/// root, where the branch is obvious; the law is evaluated only where it
/// is not.  Before bisecting for `target`, one `expm1` gives the root in
/// exact arithmetic, r = tau * expm1(target/amp) / (duty * afc), and the
/// law is evaluated at L = r(1 - eps) and U = r(1 + eps) (eps = 2^-40).
/// The loop is then the loop above — same mids, same stop rule, same cap —
/// except that a mid below L takes the `lo` branch and a mid at or above U
/// the `hi` branch without a `log1p`.  It takes the branches the loop that
/// evaluates every mid takes, so it returns the same bits, provided:
///
///   * law(L) < target * (1 - Delta) proves law(t) < target for all t <= L;
///   * law(U) > target * (1 + Delta) proves law(t) >= target for all
///     t >= U;
///
/// with Delta = 2^-48 (32 units of u = 2^-53).  Why: the computed law is
/// c(t) = amp (*) log1p~(y(t)) with y(t) = ((t (*) duty) (*) afc) (/) tau,
/// where (*) and (/) are rounded IEEE operations and log1p~ is libm's.
/// Each rounded operation is monotone in its argument, and duty, afc and
/// tau are positive (or r is not a positive normal, see below), so
/// y(t) <= y(L) for t <= L and y(t) >= y(U) for t >= U — no bound on the
/// argument's three roundings is needed.  The exact log1p is increasing.
/// What separates c(t) from c(L) is then only the error of the last two
/// steps at both points, delta = 3u per evaluation:
///
///   * `log1p`: at most 1 ulp (<= 2u relative) for double on x86_64 and
///     aarch64 — glibc manual, "Known Maximum Errors in Math Functions";
///   * the product `amp * log1p`: one rounding, u.
///
/// So c(t) <= c(L) (1 + delta)/(1 - delta) ~ c(L)(1 + 6u), and ulp-sized
/// absolute terms from subnormal intermediates stay below 6u * target
/// because target and target/amp are required to be normal.  With the one
/// rounding of target * (1 -/+ Delta), 13u of the 32u budget is used
/// (each further ulp of `log1p` error costs 8u, so up to 3 ulp still keep
/// the proof).  The upper side is the mirror image.
///
/// A target, target/amp or r that is not a positive normal double (a zero
/// shift, duty or capture factor, `expm1` overflow, a subnormal target)
/// certifies nothing, and each end whose test fails is dropped: the loop
/// then evaluates every mid on that side, exactly as before.

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
