#include "ash/util/double_codec.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/random.h"

namespace ash {
namespace {

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// Whether `v` reads back from its text with the same bits.
bool round_trips(double v) {
  const std::optional<double> back = parse_double(fmt_double(v));
  return back && to_bits(*back) == to_bits(v);
}

TEST(DoubleCodec, MillionSeededBitPatternsRoundTripBitExactly) {
  using limits = std::numeric_limits<double>;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  // ±0 and the extremes, with their neighbours.
  std::vector<double> fixed = {0.0, limits::min(), limits::denorm_min(),
                               limits::max(), limits::epsilon(), 1.0};
  for (const double v : std::vector<double>(fixed)) {
    fixed.push_back(std::nextafter(v, 0.0));
    fixed.push_back(std::nextafter(v, limits::infinity()));
  }
  int failures = 0;
  for (const double v : fixed) {
    for (const double s : {v, -v}) {
      if (std::isfinite(s) && !round_trips(s) && ++failures <= 10) {
        ADD_FAILURE() << "bits " << std::hex << to_bits(s);
      }
    }
  }
  // Seeded patterns, a third each: any finite bit pattern (almost all
  // normal), subnormals (biased exponent 0), and normals spread over
  // every exponent.
  Rng rng(derive_seed(0xD0B1Eu, 1));
  int subnormals = 0;
  for (int i = 0; i < 1000000; ++i) {
    std::uint64_t bits = rng();
    if (i % 3 == 1) {
      bits &= kSign | kMantissa;
    } else if (i % 3 == 2) {
      const std::uint64_t exponent = 1 + rng.uniform_index(2046);
      bits = (bits & (kSign | kMantissa)) | (exponent << 52);
    }
    const double v = from_bits(bits);
    if (!std::isfinite(v)) continue;
    if (std::fpclassify(v) == FP_SUBNORMAL) ++subnormals;
    if (!round_trips(v) && ++failures <= 10) {
      ADD_FAILURE() << "bits " << std::hex << bits;
    }
  }
  EXPECT_EQ(failures, 0);
  EXPECT_GT(subnormals, 300000);
}

TEST(DoubleCodec, WritesTheShortestRoundTripForm) {
  EXPECT_EQ(fmt_double(0.1), "0.1");
  EXPECT_EQ(fmt_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(fmt_double(3600.0), "3600");
  EXPECT_EQ(fmt_double(1e18), "1e+18");
  EXPECT_EQ(fmt_double(-0.0), "-0");
  EXPECT_EQ(fmt_double(std::numeric_limits<double>::denorm_min()), "5e-324");
  EXPECT_EQ(fmt_double(-std::numeric_limits<double>::min()),
            "-2.2250738585072014e-308");
}

TEST(DoubleCodec, AppendG17SpellsLikePrintf) {
  // The checkpoint writers' spelling: byte-equal to "%.17g" on zeros,
  // subnormals, the extremes and seeded occupancy-like values, and read
  // back by parse_double.
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0, -0.0, 0.1, 1.0, 3600.0, 1e18,
                                limits::denorm_min(), -limits::min(),
                                limits::max(), 1e-300};
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) values.push_back(rng.uniform());
  for (const double v : values) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", v);
    std::string got;
    append_g17(got, v);
    EXPECT_EQ(got, want);
    EXPECT_TRUE(parse_double(got).has_value()) << got;
  }
}

TEST(DoubleCodec, RefusesSpellingsStrtodAccepted) {
  for (const char* text : {" 1", "+1", "0x1p3", "1e-400", "1e400", "inf",
                           "-inf", "nan", "infinity", "", "1 ", "1x", "1e",
                           ".", "-", "1,5", "0.5\n"}) {
    EXPECT_FALSE(parse_double(text).has_value()) << "'" << text << "'";
  }
}

TEST(DoubleCodec, AcceptsEveryDecimalSpellingOfAFiniteValue) {
  EXPECT_EQ(parse_double("0.10000000000000001"), 0.1);  // the old %.17g
  EXPECT_EQ(parse_double("3.6e3"), 3600.0);
  EXPECT_EQ(parse_double("-0.5"), -0.5);
  EXPECT_EQ(parse_double(".5"), 0.5);
  EXPECT_EQ(parse_double("4e-324"), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_double("1.7976931348623157e308"),
            std::numeric_limits<double>::max());
}

}  // namespace
}  // namespace ash
