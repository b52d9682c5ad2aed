#include "ash/util/random.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/ou_noise.h"
#include "ash/util/stats.h"

namespace ash {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(SeedStreams, DefaultSeedsAreDistinctDerivedStreams) {
  const std::vector<SeedStream> streams{
      SeedStream::kRunner, SeedStream::kMeasurement, SeedStream::kChamber,
      SeedStream::kSupply, SeedStream::kFaultPlan};
  std::vector<std::uint64_t> seeds;
  for (const auto s : streams) seeds.push_back(default_seed(s));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    // Derived, never the raw root or a raw literal.
    EXPECT_NE(seeds[i], kDefaultSeedRoot);
    EXPECT_EQ(seeds[i],
              derive_seed(kDefaultSeedRoot,
                          static_cast<std::uint64_t>(streams[i])));
    for (std::size_t j = i + 1; j < seeds.size(); ++j) {
      EXPECT_NE(seeds[i], seeds[j]);
    }
  }
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, -1.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, -1.0);
  }
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(11);
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.normal());
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.exponential(4.0));
  EXPECT_NEAR(mean(xs), 4.0, 0.1);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, LogUniformCoversDecadesUniformly) {
  Rng rng(17);
  // Count draws per decade of [1e-3, 1e3]; expect roughly equal occupancy.
  std::vector<int> decade_counts(6, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.loguniform(1e-3, 1e3);
    ASSERT_GE(x, 1e-3);
    ASSERT_LE(x, 1e3);
    const int d = static_cast<int>(std::floor(std::log10(x) + 3.0));
    if (d >= 0 && d < 6) ++decade_counts[d];
  }
  for (int c : decade_counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 6.0, n * 0.01);
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(DeriveSeed, IsStableAndStreamSensitive) {
  EXPECT_EQ(derive_seed(100, 1), derive_seed(100, 1));
  EXPECT_NE(derive_seed(100, 1), derive_seed(100, 2));
  EXPECT_NE(derive_seed(100, 1), derive_seed(101, 1));
}

TEST(OrnsteinUhlenbeck, StationaryStddevMatches) {
  OrnsteinUhlenbeck ou(/*sigma=*/0.3, /*tau=*/60.0, Rng(23));
  // Warm up past several correlation times, then sample.
  for (int i = 0; i < 100; ++i) ou.advance(Seconds{60.0});
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(ou.advance(Seconds{120.0}));
  EXPECT_NEAR(mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stddev(xs), 0.3, 0.02);
}

TEST(OrnsteinUhlenbeck, ConsecutiveSamplesAreCorrelated) {
  OrnsteinUhlenbeck ou(1.0, 100.0, Rng(29));
  for (int i = 0; i < 50; ++i) ou.advance(Seconds{100.0});
  std::vector<double> a;
  std::vector<double> b;
  double prev = ou.value();
  for (int i = 0; i < 20000; ++i) {
    // Step far smaller than tau: strong positive autocorrelation expected.
    const double next = ou.advance(Seconds{5.0});
    a.push_back(prev);
    b.push_back(next);
    prev = next;
  }
  // Pearson correlation of consecutive samples.
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0;
  double saa = 0.0;
  double sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  EXPECT_GT(sab / std::sqrt(saa * sbb), 0.8);
}

}  // namespace
}  // namespace ash
