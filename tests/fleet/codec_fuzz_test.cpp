/// Seeded mutational sweep over the fleet decoders that read doubles
/// through `ash::parse_double`: the wire's strict key/value documents
/// (`MarginRequest`), its line-cursor documents (`MarginBatchRequest`,
/// `MarginBatchResponse` rows), the journal record (`SleepMutation`) and
/// the state snapshot (`ServiceState`), with the mutator and the
/// reject-or-round-trip check of `support/fuzz.h`.  Every mutant must
/// either be rejected with the decoder's own error, or decode to a value
/// that round-trips: encoding it and decoding the result gives the same
/// bytes again (and, for the canonical-only journal record, the mutant's
/// own bytes).  Any other outcome — another exception type, a crash, a
/// sanitizer report — fails the sweep.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "support/fuzz.h"

namespace ash::fleet {
namespace {

constexpr int kMutantsPerTarget = 20000;

using fuzz::Outcome;

/// Reject-or-round-trip through a wire codec's parse/encode pair.
template <typename Message>
Outcome wire_round_trip(const std::string& bytes) {
  return fuzz::reject_or_round_trip<ProtocolError>(
      bytes, [](const std::string& b) { return Message::parse(b); },
      [](const Message& m) { return m.encode(); });
}

fuzz::Tally sweep(const std::vector<std::string>& corpus,
                  std::uint64_t stream,
                  const std::function<Outcome(const std::string&)>& decode) {
  return fuzz::sweep(corpus, stream, kMutantsPerTarget, decode);
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

using fuzz::expect_both_outcomes;

TEST(CodecFuzz, MarginRequestRejectsOrRoundTrips) {
  expect_both_outcomes(sweep(margin_requests(), 1, [](const std::string& b) {
    return wire_round_trip<MarginRequest>(b);
  }));
}

TEST(CodecFuzz, MarginBatchRequestRejectsOrRoundTrips) {
  expect_both_outcomes(
      sweep(margin_batch_requests(), 2, [](const std::string& b) {
        return wire_round_trip<MarginBatchRequest>(b);
      }));
}

TEST(CodecFuzz, MarginBatchResponseRejectsOrRoundTrips) {
  expect_both_outcomes(
      sweep(margin_batch_responses(), 3, [](const std::string& b) {
        return wire_round_trip<MarginBatchResponse>(b);
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
    return fuzz::reject_or_round_trip<std::runtime_error>(
        b, [](const std::string& d) { return ServiceState::deserialize(d); },
        [](const ServiceState& s) { return s.serialize(); });
  }));
}

}  // namespace
}  // namespace ash::fleet
