#include "ash/util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "ash/util/random.h"

namespace ash::util {
namespace {

// Reference: the classic table-driven byte-at-a-time loop, kept here (and
// only here) so the sliced implementation is checked against an
// independent copy of the definition rather than against itself.
constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

std::uint32_t reference_crc32(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// `size` seeded pseudo-random bytes.
std::string seeded_bytes(std::size_t size, std::uint64_t seed) {
  std::string out(size, '\0');
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < size; i += 8) {
    std::uint64_t word = splitmix64(state);
    for (std::size_t k = i; k < size && k < i + 8; ++k, word >>= 8) {
      out[k] = static_cast<char>(word & 0xFFu);
    }
  }
  return out;
}

TEST(Crc32Test, CheckValue) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(crc32(""), 0u); }

TEST(Crc32Test, KnownVectors) {
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
  EXPECT_EQ(crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string text = "ash-fleet checkpoint payload, framed and fsynced";
  Crc32 crc;
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Crc32 two;
    two.update(text.substr(0, split));
    two.update(text.substr(split));
    EXPECT_EQ(two.value(), crc32(text)) << "split at " << split;
  }
}

TEST(Crc32Test, SingleBitFlipChangesValue) {
  std::string text = "durable";
  const std::uint32_t clean = crc32(text);
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = text;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      EXPECT_NE(crc32(corrupt), clean) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32Test, EveryLengthAtEveryAlignmentMatchesTheByteLoop) {
  // Lengths 0..1024 cover an empty input, tails of every size 0..7 and
  // many whole 8-byte steps; offsets 0..7 cover every start alignment.
  const std::string buf = seeded_bytes(1024 + 8, 0xC3C3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const char* start = buf.data() + offset;
      ASSERT_EQ(crc32(start, len), reference_crc32(start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitsStraddlingWordBoundariesMatch) {
  // Three pieces cut at every pair of points: most cuts fall inside an
  // 8-byte step, so each piece starts on a different alignment and ends
  // with a different tail.
  const std::string buf = seeded_bytes(67, 0x5EED);
  const std::uint32_t want = reference_crc32(buf.data(), buf.size());
  for (std::size_t a = 0; a <= buf.size(); ++a) {
    for (std::size_t b = a; b <= buf.size(); ++b) {
      Crc32 crc;
      crc.update(buf.data(), a);
      crc.update(buf.data() + a, b - a);
      crc.update(buf.data() + b, buf.size() - b);
      ASSERT_EQ(crc.value(), want) << "cuts at " << a << " and " << b;
    }
  }
}

TEST(Crc32Test, OneMebibyteMatchesTheByteLoop) {
  const std::string buf = seeded_bytes(std::size_t{1} << 20, 0x1F1B);
  EXPECT_EQ(crc32(buf), reference_crc32(buf.data(), buf.size()));
}

}  // namespace
}  // namespace ash::util
