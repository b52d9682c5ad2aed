/// The benchmark's own tests: the tail-percentile rule, span self time,
/// and the output checks catching a single flipped bit.
///
///   python3 perfbench/run.py --test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ash/tb/data_log.h"
#include "ash/util/crc32.h"
#include "golden_chip5_data.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);  // 99.9 * 10000 is inexact
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(Percentile, CheckedRefusesATailTheCountCannotCarry) {
  EXPECT_EQ(checked_percentile(one_to(100), 90.0, "x"), 90.0);
  EXPECT_EQ(checked_percentile(one_to(1000), 99.0, "x"), 990.0);
  EXPECT_THROW(checked_percentile(one_to(99), 90.0, "x"), std::logic_error);
  try {
    checked_percentile(one_to(999), 99.0, "reads");
    FAIL() << "p99 of 999 samples leaves only 9 beyond it";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("reads: 999 samples"), std::string::npos)
        << e.what();
  }
}

TEST(UnitTimes, SumsCountTimesFastestPerKind) {
  UnitTimes u;
  for (const double w : {1.6, 1.0, 9.0}) u.add(0, w, w / 2);  // slowed repeats
  u.add(3, 0.5, 0.25);  // kinds need not be contiguous
  EXPECT_DOUBLE_EQ(u.wall_s(), 3 * 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(u.cpu_s(), 3 * 0.5 + 0.25);
  EXPECT_EQ(UnitTimes{}.wall_s(), 0.0);
}

Span span(std::int64_t start, std::int64_t end, int parent) {
  return Span{"s", start, end, parent};
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  const std::vector<Span> spans = {
      span(0, 100, -1),  // root
      span(10, 30, 0),   // child
      span(15, 20, 1),   // grandchild: counts against the child, not the root
      span(50, 60, 0),   // child
  };
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{70, 15, 5, 10}));
}

TEST(SelfTime, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      span(0, 100, -1),
      span(10, 40, 0),
      span(30, 50, 0),   // overlaps the first child by 10
      span(90, 120, 0),  // runs past the parent's end
  };
  EXPECT_EQ(self_times(spans)[0], 100 - (40 + 10));
}

TEST(SelfTime, TracerLinksParentsByNesting) {
  Tracer t;
  {
    const ScopedSpan a(&t, "a");
    { const ScopedSpan b(&t, "b"); }
    { const ScopedSpan c(&t, "c"); }
  }
  { const ScopedSpan d(&t, "d"); }
  ASSERT_EQ(t.spans().size(), 4u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[3].parent, -1);
  const auto self = t.self_ns();
  const auto dur = [&](int i) { return t.spans()[i].end_ns - t.spans()[i].start_ns; };
  EXPECT_EQ(self[0], dur(0) - dur(1) - dur(2));
  EXPECT_EQ(t.self_ns_of("b"), std::vector<double>{static_cast<double>(dur(1))});
}

/// Every single-bit flip in every `stride`-th byte of `bytes` must change
/// the CRC the output checks compare.
void expect_bit_flips_caught(const std::string& bytes, std::size_t stride = 1) {
  const std::uint32_t pinned = ash::util::crc32(bytes);
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      ASSERT_NE(ash::util::crc32(flipped), pinned) << "byte " << i << " bit " << bit;
    }
  }
}

ash::tb::DataLog golden_chip5_log() {
  ash::tb::DataLog log;
  for (const std::uint64_t bits : ash::golden::kChip5LogDelayBits) {
    ash::tb::SampleRecord r;
    r.test_case = "chip5";
    r.chip_id = 5;
    r.phase = "AS110DC24";
    double delay = 0.0;
    std::memcpy(&delay, &bits, sizeof delay);
    r.delay_s = ash::Seconds{delay};
    log.add(r);
  }
  return log;
}

TEST(OutputChecks, LogCrcCatchesEveryFlippedBit) {
  ash::tb::DataLog log;
  for (std::size_t i = 0; i < 3; ++i) log.add(golden_chip5_log().records()[i]);
  expect_bit_flips_caught(log_csv(log));
}

TEST(OutputChecks, FleetTranscriptCatchesFlippedBits) {
  const std::string transcript = fleet_expected_transcript(1, 1);
  EXPECT_EQ(transcript, fleet_expected_transcript(1, 1));  // seeded
  EXPECT_NE(transcript, fleet_expected_transcript(2, 1));
  expect_bit_flips_caught(transcript, 997);  // the whole transcript, sampled
}

TEST(OutputChecks, GoldenChip5HoldsToOneUlp) {
  ash::tb::DataLog log = golden_chip5_log();
  EXPECT_TRUE(chip5_matches_golden(log));

  const auto with_bits_flipped = [&](std::size_t record, std::uint64_t mask) {
    ash::tb::DataLog out;
    for (std::size_t i = 0; i < log.size(); ++i) {
      ash::tb::SampleRecord r = log.records()[i];
      if (i == record) {
        double v = r.delay_s.value();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        bits ^= mask;
        std::memcpy(&v, &bits, sizeof v);
        r.delay_s = ash::Seconds{v};
      }
      out.add(r);
    }
    return out;
  };
  EXPECT_FALSE(chip5_matches_golden(with_bits_flipped(100, 1ull << 1)));  // 2 ULP
  EXPECT_FALSE(chip5_matches_golden(with_bits_flipped(7, 1ull << 52)));   // exponent
  EXPECT_FALSE(chip5_matches_golden(with_bits_flipped(0, 1ull << 63)));   // sign
}

}  // namespace
}  // namespace perfbench
