/// Seeded mutational sweep over the fleet decoders that read doubles
/// through `ash::parse_double`: the wire's strict key/value documents
/// (`MarginRequest`), its line-cursor documents (`MarginBatchRequest`,
/// `MarginBatchResponse` rows), the journal record (`SleepMutation`) and
/// the state snapshot (`ServiceState`).  Valid payloads are mutated by
/// byte flips, splices of other payloads and duplicated tokens.  Every
/// mutant must either be rejected with the decoder's own error, or decode
/// to a value that round-trips: encoding it and decoding the result gives
/// the same bytes again (and, for the canonical-only journal record, the
/// mutant's own bytes).  Any other outcome — another exception type, a
/// crash, a sanitizer report — fails the sweep.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/util/random.h"

namespace ash::fleet {
namespace {

constexpr int kMutantsPerTarget = 20000;

/// Bytes a flip writes: the number grammar's own characters (so flips
/// reach the double parser rather than die at the line grammar), the
/// separators, and anything else.
char flip_byte(Rng& rng) {
  static constexpr char kNumberish[] = "0123456789.eE+-x pinfa\n";
  if (rng.bernoulli(0.75)) {
    return kNumberish[rng.uniform_index(sizeof kNumberish - 1)];
  }
  return static_cast<char>(rng.uniform_index(256));
}

/// One to three mutations of `payload`, splicing from `corpus`.
std::string mutate(const std::string& payload,
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

/// What one decoder does with a candidate payload.
enum class Outcome { kRejected, kRoundTripped };

struct Tally {
  int rejected = 0;
  int round_tripped = 0;
};

/// Mutate every corpus entry in turn; `decode` classifies each mutant and
/// reports a failed round trip itself.
Tally sweep(const std::vector<std::string>& corpus, std::uint64_t stream,
            const std::function<Outcome(const std::string&)>& decode) {
  Rng rng(derive_seed(0xF0221u, stream));
  Tally tally;
  for (int i = 0; i < kMutantsPerTarget; ++i) {
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

/// Decode with `parse`, rejecting on `Error`; an accepted value must
/// re-encode to bytes that decode and re-encode to themselves.
template <typename Message, typename Error>
Outcome wire_round_trip(const std::string& bytes) {
  Message decoded;
  try {
    decoded = Message::parse(bytes);
  } catch (const Error&) {
    return Outcome::kRejected;
  }
  const std::string once = decoded.encode();
  EXPECT_EQ(Message::parse(once).encode(), once) << "from '" << bytes << "'";
  return Outcome::kRoundTripped;
}

std::vector<std::string> margin_requests() {
  std::vector<std::string> out;
  MarginRequest req;
  req.device_id = 16383;
  req.duty = 0.1 + 0.2;
  req.vdd = Volts{1.2};
  req.temp = Celsius{-40.5};
  req.horizon = Seconds{1e18};
  out.push_back(req.encode());
  req.duty = 5e-324;
  req.temp = Celsius{1.0 / 3.0};
  req.horizon = Seconds{0.0};
  out.push_back(req.encode());
  return out;
}

std::vector<std::string> margin_batch_requests() {
  MarginBatchRequest req;
  req.device_ids = {0, 7, 16383};
  req.duty = 0.95;
  req.vdd = Volts{-0.0};
  req.temp = Celsius{99.999999999999986};
  req.horizon = Seconds{315576000.0};
  return {req.encode()};
}

std::vector<std::string> margin_batch_responses() {
  MarginBatchResponse resp;
  resp.margin = Volts{12e-3};
  resp.rows = {{0, true, Seconds{123.25}, Volts{0.011}},
               {42, false, Seconds{3.15e8}, Volts{2.2250738585072014e-308}},
               {9, true, Seconds{0.0}, Volts{1.0 / 7.0}}};
  return {resp.encode()};
}

std::vector<std::string> journal_records() {
  std::vector<std::string> out;
  for (const SleepWindow& w :
       {SleepWindow{Seconds{3600.0}, Seconds{21600.0}},
        SleepWindow{Seconds{0.1}, Seconds{1.0 / 3.0}},
        SleepWindow{Seconds{1e-300}, Seconds{1.7976931348623157e308}}}) {
    out.push_back(SleepMutation{3, 11, 2, w}.encode());
  }
  return out;
}

std::vector<std::string> state_documents() {
  ServiceState state = ServiceState::genesis(4, Volts{12e-3}, 7);
  std::vector<std::string> out = {state.serialize()};
  (void)state.apply(SleepMutation{3, 11, 2,
                                  SleepWindow{Seconds{0.1}, Seconds{3600.0}}});
  (void)state.apply(SleepMutation{3, 12, 0,
                                  SleepWindow{Seconds{7.5e5}, Seconds{1e-3}}});
  out.push_back(state.serialize());
  return out;
}

void expect_both_outcomes(const Tally& tally) {
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.round_tripped, 0);
}

TEST(CodecFuzz, MarginRequestRejectsOrRoundTrips) {
  expect_both_outcomes(sweep(margin_requests(), 1, [](const std::string& b) {
    return wire_round_trip<MarginRequest, ProtocolError>(b);
  }));
}

TEST(CodecFuzz, MarginBatchRequestRejectsOrRoundTrips) {
  expect_both_outcomes(
      sweep(margin_batch_requests(), 2, [](const std::string& b) {
        return wire_round_trip<MarginBatchRequest, ProtocolError>(b);
      }));
}

TEST(CodecFuzz, MarginBatchResponseRejectsOrRoundTrips) {
  expect_both_outcomes(
      sweep(margin_batch_responses(), 3, [](const std::string& b) {
        return wire_round_trip<MarginBatchResponse, ProtocolError>(b);
      }));
}

TEST(CodecFuzz, JournalRecordRejectsOrRoundTripsByteForByte) {
  expect_both_outcomes(sweep(journal_records(), 4, [](const std::string& b) {
    SleepMutation decoded;
    try {
      decoded = SleepMutation::parse(b);
    } catch (const std::runtime_error&) {
      return Outcome::kRejected;
    }
    EXPECT_EQ(decoded.encode(), b);  // canonical bytes only
    return Outcome::kRoundTripped;
  }));
}

TEST(CodecFuzz, StateDocumentRejectsOrRoundTrips) {
  expect_both_outcomes(sweep(state_documents(), 5, [](const std::string& b) {
    ServiceState decoded;
    try {
      decoded = ServiceState::deserialize(b);
    } catch (const std::runtime_error&) {
      return Outcome::kRejected;
    }
    const std::string once = decoded.serialize();
    EXPECT_EQ(ServiceState::deserialize(once).serialize(), once)
        << "from '" << b << "'";
    return Outcome::kRoundTripped;
  }));
}

}  // namespace
}  // namespace ash::fleet
