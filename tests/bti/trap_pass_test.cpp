// The 4-lane AVX2 pass of TrapKinetics against its scalar forms: rate(),
// the decay rules around std::exp, and relax(), bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "ash/bti/trap_ensemble.h"
#include "ash/bti/trap_kinetics.h"
#include "ash/util/random.h"

namespace ash::bti {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One condition's inputs to the pass: the scalars and the Arrhenius
/// factor arrays, null where the duty zeroes the term (as factors_for()).
struct Inputs {
  TrapKinetics::Scalars s;
  std::vector<double> exp_c;
  std::vector<double> exp_e;
  const double* capture() const { return s.duty > 0.0 ? exp_c.data() : nullptr; }
  const double* emission() const {
    return s.duty < 1.0 ? exp_e.data() : nullptr;
  }
};

Inputs inputs_for(const TrapKinetics& k, const TrapKinetics::Scalars& s) {
  Inputs in{s, {}, {}};
  for (const double ea : k.traps().capture_ea) {
    in.exp_c.push_back(std::exp(-ea * s.capture_arr_x));
  }
  for (const double ea : k.traps().emission_ea) {
    in.exp_e.push_back(std::exp(-ea * s.emission_arr_x));
  }
  return in;
}

/// The scalar forms of one trap's step from occupancy p.
struct Lane {
  double lambda;
  double p_inf;
  double decay;
  double occ;
};

Lane scalar_lane(const TrapKinetics& k, const Inputs& in, std::size_t i,
                 double dt, double p) {
  const TrapKinetics::Rate r = k.rate(in.s, in.capture(), in.emission(), i);
  const double x = r.lambda * dt;
  const double d = r.lambda <= 0.0 ? 1.0 : (x > 700.0 ? 0.0 : std::exp(-x));
  return {r.lambda, r.p_inf, d, TrapKinetics::relax(p, r.p_inf, d)};
}

std::vector<double> uniform_occupancies(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> occ(n);
  for (double& p : occ) p = rng.uniform(0.0, 1.0);
  return occ;
}

/// The first trap of [begin, n) where the 4-lane pass (rates from trap
/// `begin` on, then the decay and the update) differs from the scalar
/// forms, or "" when every bit matches.
std::string pass_mismatch(const TrapKinetics& k, const Inputs& in, double dt,
                          std::size_t begin = 0) {
  const std::size_t n = k.traps().permanent.size() - begin;
  const std::vector<double> start = uniform_occupancies(n, 0x7A55ULL + n);
  std::vector<double> lambda(n, -7.0);
  std::vector<double> p_inf(n, -7.0);
  std::vector<double> decay(n, -7.0);
  std::vector<double> occ = start;
  detail::rates_avx2(k, in.s, in.capture(), in.emission(), begin, n,
                     lambda.data(), p_inf.data());
  detail::decay_avx2(lambda.data(), Seconds{dt}, decay.data(), n);
  detail::relax_avx2(p_inf.data(), decay.data(), occ.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Lane want = scalar_lane(k, in, begin + i, dt, start[i]);
    const Lane got{lambda[i], p_inf[i], decay[i], occ[i]};
    if (!same_bits(got.lambda, want.lambda) ||
        !same_bits(got.p_inf, want.p_inf) ||
        !same_bits(got.decay, want.decay) || !same_bits(got.occ, want.occ)) {
      char line[320];
      std::snprintf(line, sizeof line,
                    "trap %zu of %zu (duty %g, dt %g): pass lambda %a p_inf "
                    "%a decay %a occ %a; scalar %a %a %a %a",
                    begin + i, begin + n, in.s.duty, dt, got.lambda,
                    got.p_inf, got.decay, got.occ, want.lambda, want.p_inf,
                    want.decay, want.occ);
      return line;
    }
  }
  return "";
}

/// A seeded 160-trap draw; `permanent_fraction` raises the share of
/// traps that never emit.
TrapKinetics drawn(std::uint64_t seed, double permanent_fraction = 0.04) {
  TdParameters params = default_td_parameters();
  params.permanent_fraction = permanent_fraction;
  return TrapKinetics(TrapEnsemble(params, seed).kinetics(), 1);
}

/// The first n traps of `k`.
TrapKinetics prefix(const TrapKinetics& k, std::size_t n) {
  const TrapKinetics::Traps& t = k.traps();
  const auto cut = [n](const auto& v) {
    return std::vector(v.begin(), v.begin() + static_cast<long>(n));
  };
  return TrapKinetics(k.parameters(),
                      {cut(t.tau_capture), cut(t.tau_emission),
                       cut(t.capture_ea), cut(t.emission_ea),
                       cut(t.permanent)},
                      1);
}

/// DC, AC and unbiased recovery, negative-bias recovery, and stress below
/// the capture threshold (every rate of a duty-1 step zero).
std::vector<OperatingCondition> conditions() {
  return {dc_stress(Volts{1.2}, Celsius{110.0}),
          ac_stress(Volts{1.3}, Celsius{90.0}, 0.5),
          ac_stress(Volts{1.1}, Celsius{20.0}, 0.37),
          recovery(Volts{0.0}, Celsius{110.0}),
          recovery(Volts{-0.3}, Celsius{60.0}),
          dc_stress(Volts{0.3}, Celsius{100.0})};
}

/// Short steps, long ones where the fast traps pass lambda * dt = 700, and
/// +inf (every trap to its equilibrium).
const std::vector<double> kSteps = {1e-3, 60.0, 86400.0, 1e9, kInf};

bool has_avx2_pass() { return std::string_view(trap_pass_path()) == "avx2"; }

TEST(TrapPass, MatchesScalarFormsOnSeededDraws) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xC0FFEEULL}) {
    for (const double permanent : {0.04, 0.5}) {
      const TrapKinetics k = drawn(seed, permanent);
      for (const OperatingCondition& c : conditions()) {
        const Inputs in = inputs_for(k, k.scalars_for(c));
        for (const double dt : kSteps) {
          ASSERT_EQ(pass_mismatch(k, in, dt), "") << c.describe();
          // A block that starts inside the arrays, as transient_step's
          // second block of 128 does.
          ASSERT_EQ(pass_mismatch(k, in, dt, 128), "") << c.describe();
          ASSERT_EQ(pass_mismatch(k, in, dt, 3), "") << c.describe();
        }
      }
    }
  }
}

TEST(TrapPass, SettlesZeroRatesAndHugeExponents) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  // Every trap permanent: a duty-0 step has lambda == 0 everywhere.
  TrapKinetics::Traps all_permanent = drawn(7).traps();
  for (auto& p : all_permanent.permanent) p = 1;
  const TrapKinetics k(default_td_parameters(), all_permanent, 1);
  // Hand-made scalars: zero capture field (lambda <= 0 at duty 1), huge
  // rates (lambda * dt > 700 even at dt = 1), and a mixed duty.
  const TrapKinetics::Scalars cases[] = {
      {0.0, 0.0, 0.0, 0.0, 1.0, 0.0},     {1.0, 0.8, 0.0, 0.0, 1.0, 0.0},
      {0.5, 0.9, 1e300, 0.0, 1e300, 0.0}, {0.25, 0.5, 3.0, 1.0, 40.0, -2.0},
  };
  for (const TrapKinetics& core : {k, drawn(7)}) {
    for (const TrapKinetics::Scalars& s : cases) {
      const Inputs in = inputs_for(core, s);
      for (const double dt : {1.0, 1e12, kInf}) {
        ASSERT_EQ(pass_mismatch(core, in, dt), "");
      }
    }
  }
}

TEST(TrapPass, DecayRulesAtTheirEdges) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  // lambda * dt exactly 700 and its neighbours, signed zeros, subnormals,
  // negative and infinite rates, at every array position.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> lambda = {
      0.0, -0.0, -1.0, tiny, 1e-300, 1e-17, 0.5, 1.0,
      std::nextafter(700.0, 0.0), 700.0, std::nextafter(700.0, 1e3), 745.0,
      1e300, kInf, 17.0};
  for (const double dt : {1.0, 1e-9, 86400.0, kInf}) {
    for (std::size_t start = 0; start < lambda.size(); ++start) {
      const std::size_t n = lambda.size() - start;
      std::vector<double> got(n);
      detail::decay_avx2(lambda.data() + start, Seconds{dt}, got.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double l = lambda[start + i];
        const double want =
            l <= 0.0 ? 1.0 : (l * dt > 700.0 ? 0.0 : std::exp(-(l * dt)));
        EXPECT_TRUE(same_bits(got[i], want)) << "lambda " << l << ", dt " << dt;
      }
    }
  }
}

TEST(TrapPass, EveryLengthAroundTheLanesAndTheBlock) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  const TrapKinetics full = drawn(11, 0.3);
  std::vector<std::size_t> lengths = {127, 128, 129, 160};
  for (std::size_t n = 0; n <= 9; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    const TrapKinetics k = prefix(full, n);
    for (const OperatingCondition& c : conditions()) {
      const Inputs in = inputs_for(k, k.scalars_for(c));
      for (const double dt : kSteps) {
        ASSERT_EQ(pass_mismatch(k, in, dt), "") << "length " << n;
      }
    }
  }
}

TEST(TrapPass, StepOnEitherPathMatchesScalarForms) {
  // The public step() on this host's path: the store-free transient step
  // of a one-shot condition, then the cached entry of the same condition
  // missing twice in a row, from the same start.
  const TrapKinetics source = drawn(5, 0.3);
  for (const std::size_t n : {std::size_t{129}, std::size_t{160}}) {
    const TrapKinetics base = prefix(source, n);
    for (const OperatingCondition& c : conditions()) {
      const Inputs in = inputs_for(base, base.scalars_for(c));
      for (const double dt : kSteps) {
        TrapKinetics k(base, 2);
        std::vector<double> occ = uniform_occupancies(n, 99);
        std::vector<double> want = occ;
        for (int step = 0; step < 2; ++step) {
          k.step(c, Seconds{dt}, occ.data());
          for (std::size_t i = 0; i < n; ++i) {
            want[i] = scalar_lane(base, in, i, dt, want[i]).occ;
          }
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(same_bits(occ[i], want[i]))
                << c.describe() << " dt " << dt << " step " << step
                << " trap " << i << ": " << occ[i] << " vs " << want[i];
          }
        }
        EXPECT_TRUE(k.cached(c));
      }
    }
  }
}

}  // namespace
}  // namespace ash::bti
