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
  detail::rates_avx2(k, TrapKinetics::reciprocals_of(k.traps()), in.s,
                     in.capture(), in.emission(), begin, n, lambda.data(),
                     p_inf.data());
  TrapKinetics::decay(lambda.data(), Seconds{dt}, decay.data(), n);
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
  std::vector<double> shifts;
  return TrapKinetics(params, draw_traps(params, seed, shifts), 1);
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
      TrapKinetics::decay(lambda.data() + start, Seconds{dt}, got.data(), n);
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

/// A core over the given time constants: every trap permanent or none,
/// so that a duty-1 or a duty-0 lambda is a single quotient.
TrapKinetics with_taus(std::vector<double> tau_c, std::vector<double> tau_e,
                       bool permanent) {
  const std::size_t n = tau_c.size();
  return TrapKinetics(default_td_parameters(),
                      {std::move(tau_c), std::move(tau_e),
                       std::vector<double>(n, 0.5), std::vector<double>(n, 0.5),
                       std::vector<std::uint8_t>(n, permanent ? 1 : 0)},
                      1);
}

/// The first trap where rates_avx2 (with the core's reciprocals) differs
/// from rate() in lambda or p_inf, or "" when every bit matches.
std::string rates_mismatch(const TrapKinetics& k,
                           const TrapKinetics::Scalars& s, const double* exp_c,
                           const double* exp_e) {
  const std::size_t n = k.traps().permanent.size();
  std::vector<double> lambda(n, -7.0);
  std::vector<double> p_inf(n, -7.0);
  detail::rates_avx2(k, TrapKinetics::reciprocals_of(k.traps()), s, exp_c,
                     exp_e, 0, n, lambda.data(), p_inf.data());
  for (std::size_t i = 0; i < n; ++i) {
    const TrapKinetics::Rate want = k.rate(s, exp_c, exp_e, i);
    if (!same_bits(lambda[i], want.lambda) ||
        !same_bits(p_inf[i], want.p_inf)) {
      const TrapKinetics::Traps& t = k.traps();
      char line[320];
      std::snprintf(line, sizeof line,
                    "trap %zu of %zu (duty %a, tau_c %a, tau_e %a, f_c %a, "
                    "f_e %a): pass %a %a, rate() %a %a",
                    i, n, s.duty, t.tau_capture[i], t.tau_emission[i],
                    exp_c != nullptr ? exp_c[i] : 0.0,
                    exp_e != nullptr ? exp_e[i] : 0.0, lambda[i], p_inf[i],
                    want.lambda, want.p_inf);
      return line;
    }
  }
  return "";
}

TEST(TrapPass, QuotientsAreTheDivisionsOverTheRateLawOperands) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  // 3700 blocks of 4096 seeded traps.  In two blocks of three lambda is
  // one quotient alone (10,104,832 of them); the third sums both terms
  // and divides for p_inf.  Numerators are duty * (field * Arrhenius
  // factor) as rate() forms them; time constants span
  // [tau_min, tau_max * rho] of the defaults with rho up to four sigma
  // above its mean.
  const TdParameters p = default_td_parameters();
  const double tau_lo = p.tau_capture_min_s.value();
  const double tau_hi =
      p.tau_capture_max_s.value() *
      std::pow(10.0, p.emission_ratio_log10_mu +
                         4.0 * p.emission_ratio_log10_sigma);
  Rng rng(0x9A0751E7ULL);
  constexpr std::size_t kTraps = 4096;
  std::vector<double> tau_c(kTraps);
  std::vector<double> tau_e(kTraps);
  std::vector<double> f_c(kTraps);
  std::vector<double> f_e(kTraps);
  for (int block = 0; block < 3700; ++block) {
    for (std::size_t i = 0; i < kTraps; ++i) {
      tau_c[i] = rng.loguniform(tau_lo, tau_hi);
      tau_e[i] = rng.loguniform(tau_lo, tau_hi);
      // exp(-Ea * arr_x) for Ea near 0.1-1.2 eV and -40..140 C.
      f_c[i] = std::exp(-rng.uniform(0.05, 1.2) * rng.uniform(-12.0, 25.0));
      f_e[i] = std::exp(-rng.uniform(0.05, 1.2) * rng.uniform(-12.0, 25.0));
    }
    // Capture alone (every trap permanent), emission alone (duty 0), and
    // both at an AC duty.
    const int kind = block % 3;
    TrapKinetics::Scalars s{};
    s.duty = kind == 1 ? 0.0 : (block % 7 == 0 ? 1.0 : rng.uniform(0.0, 1.0));
    s.phi = kind == 1 ? 0.0 : rng.uniform(0.1, 1.0);
    s.capture_field = std::exp(rng.uniform(-3.0, 8.0));
    s.emission_bias_boost = std::exp(rng.uniform(0.0, 4.0));
    const TrapKinetics k = with_taus(tau_c, tau_e, kind == 0);
    ASSERT_EQ(rates_mismatch(k, s, s.duty > 0.0 ? f_c.data() : nullptr,
                             s.duty < 1.0 ? f_e.data() : nullptr),
              "")
        << "block " << block;
  }
}

TEST(TrapPass, QuotientsAtTheExtremeSignificands) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  // b with significand 1.0 (an exact reciprocal) and 1.fff...f (the
  // reciprocal furthest from a power of two) at every exponent from -460
  // to 460, across the tau bound at +-400, against numerators with
  // extreme and random significands, a = 0 among them.
  Rng rng(0x51EC0DULL);
  std::vector<double> b;
  for (int e = -460; e <= 460; ++e) {
    b.push_back(std::ldexp(1.0, e));
    b.push_back(std::ldexp(std::nextafter(2.0, 0.0), e));
  }
  std::vector<double> tau_e(b.size(), 1.0);
  const TrapKinetics k = with_taus(b, tau_e, true);
  const TrapKinetics::Scalars s{1.0, 0.5, 1.0, 0.0, 1.0, 0.0};
  std::vector<double> a(b.size());
  const double significands[] = {1.0, std::nextafter(2.0, 0.0),
                                 std::nextafter(1.0, 2.0), 1.5, 0.0};
  for (const double m : significands) {
    for (int e : {-30, 0, 30}) {
      for (double& x : a) x = std::ldexp(m, e);
      ASSERT_EQ(rates_mismatch(k, s, a.data(), nullptr), "")
          << "a significand " << m;
    }
  }
  for (int round = 0; round < 64; ++round) {
    for (double& x : a) x = std::ldexp(rng.uniform(1.0, 2.0), round - 32);
    ASSERT_EQ(rates_mismatch(k, s, a.data(), nullptr), "");
  }
}

TEST(TrapPass, GuardLanesTakeTheTrueDivision) {
  if (!has_avx2_pass()) GTEST_SKIP() << "no AVX2: the pass is scalar here";
  // Every operand class on both sides of the quotient, each pair at every
  // lane position: zeros of both signs, subnormal operands and quotients,
  // the guard's edges (2^-400 and 2^400 for tau, 2^-500 and 2^500 for
  // the quotient) and their neighbours, quotients near overflow,
  // infinities, NaN, negative values and tiny operand pairs.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const double big_sub = std::bit_cast<double>(0x000fffffffffffffULL);
  std::vector<double> values = {
      0.0, -0.0, sub, big_sub, std::numeric_limits<double>::min(), 1e-300,
      1e300,
      std::numeric_limits<double>::max(), inf, -inf, nan, -nan, -3.0, 0.7,
      1.0, 123.456};
  for (const double edge : {0x1p-500, 0x1p500, 0x1p-400, 0x1p400, 0x1p-100,
                            0x1p100}) {
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(edge);
    values.push_back(std::nextafter(edge, inf));
  }
  std::vector<double> a;
  std::vector<double> b;
  for (const double x : values) {
    for (const double y : values) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  // Both operands near the bottom of the exponent range with a quotient
  // near 1: there b q is not exact in the FMA (its low bits fall below
  // the subnormals), so only the tau bound keeps these lanes off the
  // corrected quotient.
  Rng rng(0x71A7ULL);
  for (int j = 0; j < 4096; ++j) {
    a.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                           -1020 + static_cast<int>(rng() % 60)));
    b.push_back(std::ldexp(rng.uniform(1.0, 2.0),
                           -1020 + static_cast<int>(rng() % 60)));
  }
  for (std::size_t shift = 0; shift < 4; ++shift) {
    std::vector<double> as(a.begin() + static_cast<long>(shift), a.end());
    std::vector<double> bs(b.begin() + static_cast<long>(shift), b.end());
    // Capture side (duty 1, every trap permanent), then emission side
    // (duty 0): lambda is a / b itself.
    const TrapKinetics capture = with_taus(bs, bs, true);
    ASSERT_EQ(rates_mismatch(capture, {1.0, 0.5, 1.0, 0.0, 1.0, 0.0},
                             as.data(), nullptr),
              "");
    const TrapKinetics emission = with_taus(bs, bs, false);
    ASSERT_EQ(rates_mismatch(emission, {0.0, 0.0, 1.0, 0.0, 1.0, 0.0},
                             nullptr, as.data()),
              "");
    // Both at once, where p_inf divides too.
    ASSERT_EQ(rates_mismatch(emission, {0.5, 0.5, 1.0, 0.0, 1.0, 0.0},
                             as.data(), as.data()),
              "");
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
        TrapKinetics k(base.parameters(), base.traps(), 2);
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
