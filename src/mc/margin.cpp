#include "ash/mc/margin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ash/bti/condition.h"

namespace ash::mc {

namespace {

/// Cap on the bisection's steps.  The loop stops earlier, at its fixed
/// point, so the cap only bounds work; the answer is the same bits either
/// way (the fleet protocol's transcript invariant).
constexpr int kBisectIterations = 200;

/// Largest projection time we ever evaluate: ~3e11 years.  The log law is
/// still finite there, and any stress-equivalent age beyond it means the
/// queried condition ages the device too slowly to matter.
constexpr double kMaxProjectSeconds = 1e19;

void validate(const MarginQuery& q) {
  const bool finite = std::isfinite(q.delta_vth.value()) &&
                      std::isfinite(q.margin.value()) &&
                      std::isfinite(q.duty) && std::isfinite(q.vdd.value()) &&
                      std::isfinite(q.temp.value()) &&
                      std::isfinite(q.horizon.value());
  if (!finite) throw std::invalid_argument("margin query: non-finite field");
  if (q.margin.value() < 0.0) {
    throw std::invalid_argument("margin query: negative margin");
  }
  if (q.horizon.value() < 0.0) {
    throw std::invalid_argument("margin query: negative horizon");
  }
  if (q.duty < 0.0 || q.duty > 1.0) {
    throw std::invalid_argument("margin query: duty outside [0, 1]");
  }
  if (q.delta_vth.value() < 0.0) {
    throw std::invalid_argument("margin query: negative delta_vth");
  }
}

/// Delta of the bracket certificates: 2^-48, 32 units in the last place,
/// of which the law's evaluation error uses at most 13 (margin.h).
constexpr double kLawRelError = 0x1p-48;

/// Half-width epsilon of the certified bracket, relative to the
/// approximate root.  At the root the law's elasticity is about 1/z
/// (z = target/amp), so the bracket's ends miss the target by about
/// epsilon/z: clear of kLawRelError up to z ~ 200, which covers every
/// projection of a 12 mV margin at 1.2 V and 60..100 C.  Only ~13 steps of
/// a 52-bit bisection then fall inside the bracket.
constexpr double kBracketHalfWidth = 0x1p-40;

/// Where a bisection for `target` may skip the law: every t < lower is
/// certified to give law(t) < target, every t >= upper law(t) >= target.
/// The default, [0, inf), certifies nothing.
struct Bracket {
  double lower = 0.0;
  double upper = std::numeric_limits<double>::infinity();
};

/// Certify a bracket around r = tau * expm1(target/amp) / (duty * afc),
/// the root of the law in exact arithmetic (one `expm1`, two `log1p`).
/// Each end is certified on its own; a target, amp ratio or root that is
/// not a positive normal double certifies neither (see margin.h).
Bracket certify(const bti::StressLaw& law, double target) {
  Bracket bracket;
  const double z = target / law.amp;
  if (!std::isnormal(target) || !std::isnormal(z) || z < 0.0) return bracket;
  const double r = law.tau.value() * std::expm1(z) / (law.duty * law.afc);
  if (!std::isnormal(r) || r < 0.0) return bracket;
  const double lower = r * (1.0 - kBracketHalfWidth);
  const double upper = r * (1.0 + kBracketHalfWidth);
  if (law.delta_vth(Seconds{lower}) < target * (1.0 - kLawRelError)) {
    bracket.lower = lower;
  }
  if (law.delta_vth(Seconds{upper}) > target * (1.0 + kLawRelError)) {
    bracket.upper = upper;
  }
  return bracket;
}

/// Smallest t in [0, hi] with law(t) >= target, assuming the law is
/// monotone nondecreasing and law(hi) >= target.  Stops at the bisection's
/// floating-point fixed point, where the 200-step loop would keep re-
/// evaluating the same mid without moving `hi` (see margin.h).  A mid
/// outside the certified bracket takes the branch its certificate proves;
/// only the mids inside it evaluate the law.
double bisect_first_reach(const bti::StressLaw& law, double target,
                          double hi) {
  const Bracket bracket = certify(law, target);
  double lo = 0.0;
  for (int i = 0; i < kBisectIterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid == hi || (mid == lo && lo > 0.0)) break;
    const bool reached =
        mid >= bracket.upper ||
        (mid >= bracket.lower && law.delta_vth(Seconds{mid}) >= target);
    if (reached) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// The query-specific tail of the projection, with the schedule's stress
/// law and its kMaxProjectSeconds ceiling supplied by the caller.  Shared
/// by the single and the batched entry points so a hoisted (law, ceiling)
/// pair yields bit-identical answers by construction.
MarginOutlook project(const bti::StressLaw& law, const MarginQuery& query,
                      double ceiling) {
  MarginOutlook outlook;
  // If even kMaxProjectSeconds of this condition cannot reproduce the
  // current shift (or reach the margin), the condition ages the device too
  // slowly for any further growth to matter within a physical horizon.
  if (ceiling < query.margin.value() || ceiling < query.delta_vth.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  // Invert the monotone stress law: find the stress-equivalent age t0 that
  // reproduces the device's current shift under the queried condition.
  const double t0 =
      bisect_first_reach(law, query.delta_vth.value(), kMaxProjectSeconds);

  // Does the projected shift reach the margin inside the horizon?
  const double at_horizon =
      law.delta_vth(Seconds{t0 + query.horizon.value()});
  if (at_horizon < query.margin.value()) {
    outlook.crosses = false;
    outlook.time_to_margin = query.horizon;
    return outlook;
  }
  const double t_cross = bisect_first_reach(law, query.margin.value(),
                                            t0 + query.horizon.value());
  outlook.crosses = true;
  outlook.time_to_margin = Seconds{std::max(0.0, t_cross - t0)};
  return outlook;
}

bti::StressLaw law_of(const bti::ClosedFormModel& model,
                      const MarginQuery& query) {
  return model.stress_law(
      query.duty > 0.0 ? bti::ac_stress(query.vdd, query.temp, query.duty)
                       : bti::recovery(query.vdd, query.temp));
}

MarginOutlook already_past_margin() {
  MarginOutlook outlook;
  outlook.crosses = true;
  outlook.time_to_margin = Seconds{0.0};
  return outlook;
}

}  // namespace

MarginOutlook margin_outlook(const bti::ClosedFormModel& model,
                             const MarginQuery& query) {
  validate(query);
  // Already past budget: the crossing is now.
  if (query.delta_vth.value() >= query.margin.value()) {
    return already_past_margin();
  }
  const bti::StressLaw law = law_of(model, query);
  return project(law, query, law.delta_vth(Seconds{kMaxProjectSeconds}));
}

std::vector<MarginOutlook> margin_outlook(
    const bti::ClosedFormModel& model,
    const std::vector<MarginQuery>& queries) {
  for (const MarginQuery& q : queries) validate(q);

  // The last schedule seen (`memo`) and its hoisted (law, ceiling).  A
  // whole-shard query carries one schedule for every device, so the law is
  // built once; a schedule change costs one law rebuild, never a scan.
  const MarginQuery* memo = nullptr;
  bti::StressLaw law;
  double ceiling = 0.0;

  std::vector<MarginOutlook> outlooks;
  outlooks.reserve(queries.size());
  for (const MarginQuery& q : queries) {
    if (q.delta_vth.value() >= q.margin.value()) {
      outlooks.push_back(already_past_margin());
      continue;
    }
    if (memo == nullptr || memo->duty != q.duty || memo->vdd != q.vdd ||
        memo->temp != q.temp) {
      memo = &q;
      law = law_of(model, q);
      ceiling = law.delta_vth(Seconds{kMaxProjectSeconds});
    }
    outlooks.push_back(project(law, q, ceiling));
  }
  return outlooks;
}

}  // namespace ash::mc
