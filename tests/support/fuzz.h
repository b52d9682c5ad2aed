#pragma once

/// Seeded mutational fuzzing shared by the decoder sweeps
/// (`fleet/codec_fuzz_test.cpp`, `integration/format_fuzz_test.cpp`).
/// Valid documents are mutated by byte flips, splices of other documents
/// and duplicated tokens; `sweep` hands every mutant to a decoder, which
/// classifies it.  The usual property is reject-or-round-trip: a mutant is
/// either refused with the decoder's own error, or decodes to a value whose
/// encoding decodes and re-encodes to the same bytes.  Any other exception
/// fails the sweep; a crash or a sanitizer report fails it too.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/random.h"

namespace ash::fuzz {

/// Bytes a flip writes: the number grammar's own characters (so flips
/// reach the number readers rather than die at the line grammar), the
/// separators, and anything else.
inline char flip_byte(Rng& rng) {
  static constexpr char kNumberish[] = "0123456789.eE+-x pinfa\n";
  if (rng.bernoulli(0.75)) {
    return kNumberish[rng.uniform_index(sizeof kNumberish - 1)];
  }
  return static_cast<char>(rng.uniform_index(256));
}

/// One to three mutations of `payload`, splicing from `corpus`.
inline std::string mutate(const std::string& payload,
                          const std::vector<std::string>& corpus, Rng& rng) {
  std::string out = payload;
  const std::uint64_t rounds = 1 + rng.uniform_index(3);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    switch (rng.uniform_index(3)) {
      case 0: {  // flip one byte
        if (out.empty()) break;
        out[rng.uniform_index(out.size())] = flip_byte(rng);
        break;
      }
      case 1: {  // replace a range with a slice of another valid payload
        const std::string& donor = corpus[rng.uniform_index(corpus.size())];
        const std::size_t from = rng.uniform_index(donor.size() + 1);
        const std::size_t len = rng.uniform_index(donor.size() - from + 1);
        const std::size_t at = rng.uniform_index(out.size() + 1);
        const std::size_t cut = rng.uniform_index(out.size() - at + 1);
        out.replace(at, cut, donor, from, len);
        break;
      }
      default: {  // duplicate one space/newline-delimited token in place
        if (out.empty()) break;
        std::size_t begin = rng.uniform_index(out.size());
        while (begin > 0 && out[begin - 1] != ' ' && out[begin - 1] != '\n') {
          --begin;
        }
        std::size_t end = begin;
        while (end < out.size() && out[end] != ' ' && out[end] != '\n') ++end;
        if (end < out.size()) ++end;  // keep its separator
        out.insert(begin, out.substr(begin, end - begin));
        break;
      }
    }
  }
  return out;
}

/// What one decoder does with a candidate document.
enum class Outcome { kRejected, kRoundTripped };

struct Tally {
  int rejected = 0;
  int round_tripped = 0;
};

/// Mutate every corpus entry in turn, `mutants` times in all; `decode`
/// classifies each mutant and reports a failed property itself.
inline Tally sweep(const std::vector<std::string>& corpus,
                   std::uint64_t stream, int mutants,
                   const std::function<Outcome(const std::string&)>& decode) {
  Rng rng(derive_seed(0xF0221u, stream));
  Tally tally;
  for (int i = 0; i < mutants; ++i) {
    const std::string mutant =
        mutate(corpus[static_cast<std::size_t>(i) % corpus.size()], corpus,
               rng);
    try {
      if (decode(mutant) == Outcome::kRejected) {
        ++tally.rejected;
      } else {
        ++tally.round_tripped;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped as '" << e.what()
                    << "': '" << mutant << "'";
    }
  }
  return tally;
}

/// Reject-or-round-trip: `decode` either throws `Error`, or its value
/// encodes to bytes that decode and re-encode to themselves.
template <typename Error, typename Decode, typename Encode>
Outcome reject_or_round_trip(const std::string& bytes, Decode decode,
                             Encode encode) {
  std::optional<decltype(decode(bytes))> decoded;
  try {
    decoded.emplace(decode(bytes));
  } catch (const Error&) {
    return Outcome::kRejected;
  }
  const std::string once = encode(*decoded);
  EXPECT_EQ(encode(decode(once)), once) << "from '" << bytes << "'";
  return Outcome::kRoundTripped;
}

inline void expect_both_outcomes(const Tally& tally) {
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.round_tripped, 0);
}

}  // namespace ash::fuzz
