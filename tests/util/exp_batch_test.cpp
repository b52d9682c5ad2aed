#include "ash/util/exp_batch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "ash/util/random.h"

namespace ash::util {
namespace {

using Kernel = void (*)(const double*, double*, std::size_t);

double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// The first lane of `kernel` over `x` whose bits differ from std::exp's,
/// out of place and in place, or "" when every lane matches.
std::string first_mismatch(Kernel kernel, const std::vector<double>& x) {
  std::vector<double> out(x.size());
  kernel(x.data(), out.data(), x.size());
  std::vector<double> in_place = x;
  kernel(in_place.data(), in_place.data(), in_place.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double want = std::exp(x[i]);
    for (const bool same_array : {false, true}) {
      const double got = same_array ? in_place[i] : out[i];
      if (std::bit_cast<std::uint64_t>(got) !=
          std::bit_cast<std::uint64_t>(want)) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "exp(%a) [lane %zu of %zu, %s]: got %a, std::exp %a",
                      x[i], i, x.size(),
                      same_array ? "in place" : "out of place", got, want);
        return line;
      }
    }
  }
  return "";
}

/// Zeros, subnormals, infinities, NaNs, the edges of glibc's main path
/// (2^-54 <= |x| < 512) and of overflow and underflow.
std::vector<double> edge_values() {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double ln_max = std::log(std::numeric_limits<double>::max());
  std::vector<double> v = {
      0.0, -0.0, inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      from_bits(0x7ff0000000000001ULL),  // signalling NaN
      from_bits(0x7ff8dead0000beefULL),  // NaN with a payload
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      from_bits(0x000fffffffffffffULL),  // largest subnormal
      std::numeric_limits<double>::min(),
      0x1p-54, -0x1p-54, 512.0, -512.0, 1.0, -1.0,
      ln_max, -708.3964185322641, -745.1332191019411, -745.1332191019412,
      709.8, 710.0, -746.0, 1024.0, -1075.0, 1e308, -1e308,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
  };
  // Both neighbours of every finite edge, both signs.
  const std::size_t edges = v.size();
  for (std::size_t i = 0; i < edges; ++i) {
    for (const double x : {v[i], -v[i]}) {
      if (!std::isfinite(x)) continue;
      v.push_back(x);
      v.push_back(std::nextafter(x, inf));
      v.push_back(std::nextafter(x, -inf));
    }
  }
  return v;
}

/// Seeded uniform draws over [-746, 710], the whole range where exp is
/// neither 0 nor inf, in chunks of 2^16 to keep the memory small.
std::string uniform_mismatch(Kernel kernel, std::size_t count) {
  Rng rng(0xE4B47C11ULL);
  std::vector<double> x(std::size_t{1} << 16);
  for (std::size_t done = 0; done < count; done += x.size()) {
    for (double& v : x) v = rng.uniform(-746.0, 710.0);
    std::string m = first_mismatch(kernel, x);
    if (!m.empty()) return m;
  }
  return "";
}

/// Every biased exponent, both signs, with random mantissas; then random
/// bit patterns.
std::vector<double> exponent_sweep() {
  Rng rng(0xB17E5ULL);
  std::vector<double> x;
  for (std::uint64_t e = 0; e < 2048; ++e) {
    for (std::uint64_t sign = 0; sign < 2; ++sign) {
      for (int j = 0; j < 64; ++j) {
        const std::uint64_t mantissa = rng() >> 12;
        x.push_back(from_bits(sign << 63 | e << 52 | mantissa));
      }
    }
  }
  for (int j = 0; j < 1 << 18; ++j) x.push_back(from_bits(rng()));
  return x;
}

/// Multiples of ln2/128 and their neighbours from -1100 ln2 to 1100 ln2:
/// every table slot, at every scale, near both ends of its interval.
std::vector<double> table_slots() {
  std::vector<double> x;
  const double step = std::log(2.0) / 128.0;
  for (int k = -1100 * 128; k <= 1100 * 128; k += 7) {
    const double c = k * step;
    for (const double off : {0.0, 0.49 * step, -0.49 * step, 0.5 * step}) {
      x.push_back(c + off);
    }
  }
  for (int k = 0; k < 128; ++k) x.push_back(k * step);
  return x;
}

void expect_exact(Kernel kernel) {
  EXPECT_EQ(first_mismatch(kernel, edge_values()), "");
  EXPECT_EQ(first_mismatch(kernel, exponent_sweep()), "");
  EXPECT_EQ(first_mismatch(kernel, table_slots()), "");

  // Every length up to two vectors plus a tail, at every offset into an
  // edge-value array, so special lanes land in the vector and the tail.
  const std::vector<double> edges = edge_values();
  for (std::size_t len = 0; len <= 9; ++len) {
    for (std::size_t at = 0; at + len <= edges.size(); ++at) {
      const std::vector<double> x(edges.begin() + static_cast<long>(at),
                                  edges.begin() + static_cast<long>(at + len));
      const std::string m = first_mismatch(kernel, x);
      ASSERT_EQ(m, "") << "length " << len << " at " << at;
    }
  }
}

/// An entry point with a scalar operand, and its scalar reference.
using ScalarKernel = void (*)(const double*, double, double*, std::size_t);
using Reference = double (*)(double, double);

double scaled_reference(double a, double s) { return std::exp(a * s); }

double decay_reference(double lambda, double t) {
  const double x = lambda * t;
  return lambda <= 0.0 ? 1.0 : (x > 700.0 ? 0.0 : std::exp(-x));
}

/// The first lane where `kernel` over x with scalar s differs from
/// `reference`, out of place and in place, at every start offset below 4
/// (so each value meets every lane and the tail), or "" when all match.
std::string scalar_form_mismatch(ScalarKernel kernel,
                                 const std::vector<double>& x, double s,
                                 Reference reference) {
  for (std::size_t start = 0; start < 4 && start <= x.size(); ++start) {
    const std::size_t n = x.size() - start;
    std::vector<double> out(n);
    kernel(x.data() + start, s, out.data(), n);
    std::vector<double> in_place(x.begin() + static_cast<long>(start),
                                 x.end());
    kernel(in_place.data(), s, in_place.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double want = reference(x[start + i], s);
      // With two NaN operands, which payload a product keeps is up to
      // the compiler's operand order: only NaN-ness is asserted there.
      const bool two_nans = std::isnan(x[start + i]) && std::isnan(s);
      for (const double got : {out[i], in_place[i]}) {
        if (two_nans ? !std::isnan(got)
                     : std::bit_cast<std::uint64_t>(got) !=
                           std::bit_cast<std::uint64_t>(want)) {
          char line[160];
          std::snprintf(line, sizeof line,
                        "x %a, s %a [lane %zu from %zu]: got %a, want %a",
                        x[start + i], s, i, start, got, want);
          return line;
        }
      }
    }
  }
  return "";
}

TEST(ExpBatch, MatchesStdExpBitForBit) {
  expect_exact(&exp_batch);
  EXPECT_EQ(uniform_mismatch(&exp_batch, 10'000'000), "");
}

TEST(ExpBatch, VectorKernelMatchesStdExpBitForBit) {
  if (std::string_view(exp_batch_path()) != "avx2+fma") {
    GTEST_SKIP() << "no AVX2+FMA: exp_batch is the std::exp loop here";
  }
  expect_exact(&detail::exp_batch_avx2_fma);
  EXPECT_EQ(uniform_mismatch(&detail::exp_batch_avx2_fma, 1'000'000), "");
}

TEST(ExpBatch, ScaledMatchesStdExpOfTheRoundedProduct) {
  // The Arrhenius factors' form: exp(ea * -arr_x).  Scales from the
  // condition range, the identity, zeros and non-finite scales; inputs
  // that land every lane class (main path, tiny, >= 512, inf, NaN).
  const std::vector<double> edges = edge_values();
  Rng rng(0x5CA1EDULL);
  std::vector<double> drawn(4099);
  for (double& a : drawn) a = rng.uniform(-70.0, 70.0);
  const std::vector<double> scales = {
      -10.4, 3.7, -1e-3, 1.0, -1.0, 0.0, -0.0, 0x1p-60, 600.0, -1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double s : scales) {
    for (const std::vector<double>& a : {edges, drawn}) {
      ASSERT_EQ(scalar_form_mismatch(&exp_scaled_batch, a, s, scaled_reference),
                "")
          << "scale " << s;
    }
  }
}

TEST(ExpBatch, DecayMatchesTheScalarRules) {
  // 1 where lambda <= 0, 0 where lambda * t > 700, else exp(-(lambda * t)):
  // at lambda * t = 512 (where glibc's main path ends), at 700 and the
  // doubles around it, and past it; zeros of both signs, subnormals,
  // negative, infinite and NaN rates, and the tiny arguments glibc
  // answers without its table.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> lambda = {
      0.0, -0.0, -1.0, -inf, tiny, 1e-300, 1e-17, 0x1p-55, 0.5, 1.0,
      std::nextafter(512.0, 0.0), 512.0, std::nextafter(512.0, 1e3),
      std::nextafter(700.0, 0.0), 700.0, std::nextafter(700.0, 1e3),
      700.5, 745.0, 746.0, 1e300, inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  Rng rng(0xDECA7ULL);
  for (int i = 0; i < 4001; ++i) lambda.push_back(rng.uniform(-1.0, 760.0));
  for (const double t : {1.0, 2.0, 0.5, 1e-9, 86400.0, 0.0, inf}) {
    ASSERT_EQ(scalar_form_mismatch(&decay_batch, lambda, t, decay_reference),
              "")
        << "t " << t;
  }
}

}  // namespace
}  // namespace ash::util
