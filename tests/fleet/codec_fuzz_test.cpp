/// Seeded mutational sweep over every fleet decoder: each wire payload
/// codec (strict key/value documents, the line-cursor batch and metrics
/// documents, the empty ping/status requests), the journal record
/// (`SleepMutation`), the state snapshot (`ServiceState`) and the stream
/// framer (`FrameReader`), with the mutator and the reject-or-round-trip
/// check of `support/fuzz.h`.  Every mutant must either be rejected with
/// the decoder's own error, or decode to a value that round-trips:
/// encoding it and decoding the result gives the same bytes again (and,
/// for the canonical-only journal record, the mutant's own bytes).  Any
/// other outcome — another exception type, a crash, a sanitizer report —
/// fails the sweep.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/util/crc32.h"
#include "ash/util/random.h"
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

/// The empty documents (ping, status request) need a non-empty donor, or
/// every mutant would be the empty string again.
std::vector<std::string> empty_document_corpus() {
  return {std::string(), "status ok\nmessage -\n"};
}

std::vector<std::string> rejuvenation_requests() {
  RejuvenationRequest req;
  std::vector<std::string> out = {req.encode()};
  req.epoch = Seconds{1e-300};
  out.push_back(req.encode());
  return out;
}

std::vector<std::string> rejuvenation_responses() {
  RejuvenationResponse resp;
  resp.any = true;
  resp.shard_id = 3;
  resp.degradation = 0.1 + 0.2;
  std::vector<std::string> out = {resp.encode()};
  out.push_back(RejuvenationResponse{}.encode());
  return out;
}

std::vector<std::string> schedule_sleep_requests() {
  ScheduleSleepRequest req;
  req.client_id = 42;
  req.device_id = 16383;
  req.start = Seconds{1.0 / 3.0};
  return {req.encode()};
}

std::vector<std::string> schedule_sleep_responses() {
  ScheduleSleepResponse resp;
  resp.newly_applied = true;
  resp.windows = 3;
  std::vector<std::string> out = {resp.encode()};
  resp.status = Status::kShuttingDown;
  resp.newly_applied = false;
  resp.windows = 0;
  out.push_back(resp.encode());
  return out;
}

std::vector<std::string> status_responses() {
  StatusResponse resp;
  resp.devices = 16384;
  resp.windows = 12;
  resp.sequence = 99;
  resp.draining = true;
  return {resp.encode()};
}

std::vector<std::string> error_responses() {
  ErrorResponse err;
  err.status = Status::kOverloaded;
  err.message = "request queue full (8 admitted per tick)";
  std::vector<std::string> out = {err.encode()};
  out.push_back(ErrorResponse{}.encode());  // the empty message, "-"
  return out;
}

std::vector<std::string> metrics_requests() {
  MetricsRequest req;
  req.prefix = "fleet.service.";
  std::vector<std::string> out = {req.encode()};
  out.push_back(MetricsRequest{}.encode());  // no filter, "-"
  return out;
}

std::vector<std::string> metrics_responses() {
  MetricsResponse resp;
  resp.text = "fleet.service.requests=12\nfleet.client.rtt_s.p50=2.5e-05\n";
  std::vector<std::string> out = {resp.encode()};
  out.push_back(MetricsResponse{}.encode());
  return out;
}

using fuzz::expect_both_outcomes;

TEST(CodecFuzz, PingPayloadsRejectOrRoundTrip) {
  expect_both_outcomes(
      sweep(empty_document_corpus(), 6, wire_round_trip<PingRequest>));
  expect_both_outcomes(
      sweep(empty_document_corpus(), 7, wire_round_trip<PingResponse>));
}

TEST(CodecFuzz, RejuvenationPayloadsRejectOrRoundTrip) {
  expect_both_outcomes(sweep(rejuvenation_requests(), 8,
                             wire_round_trip<RejuvenationRequest>));
  expect_both_outcomes(sweep(rejuvenation_responses(), 9,
                             wire_round_trip<RejuvenationResponse>));
}

TEST(CodecFuzz, ScheduleSleepPayloadsRejectOrRoundTrip) {
  expect_both_outcomes(sweep(schedule_sleep_requests(), 10,
                             wire_round_trip<ScheduleSleepRequest>));
  expect_both_outcomes(sweep(schedule_sleep_responses(), 11,
                             wire_round_trip<ScheduleSleepResponse>));
}

TEST(CodecFuzz, StatusPayloadsRejectOrRoundTrip) {
  expect_both_outcomes(
      sweep(empty_document_corpus(), 12, wire_round_trip<StatusRequest>));
  expect_both_outcomes(
      sweep(status_responses(), 13, wire_round_trip<StatusResponse>));
}

TEST(CodecFuzz, ErrorResponseRejectsOrRoundTrips) {
  expect_both_outcomes(
      sweep(error_responses(), 14, wire_round_trip<ErrorResponse>));
}

TEST(CodecFuzz, MetricsPayloadsRejectOrRoundTrip) {
  expect_both_outcomes(
      sweep(metrics_requests(), 15, wire_round_trip<MetricsRequest>));
  expect_both_outcomes(
      sweep(metrics_responses(), 16, wire_round_trip<MetricsResponse>));
}

/// Byte streams of several valid frames each.
std::vector<std::string> frame_streams() {
  MarginRequest margin;
  margin.device_id = 7;
  return {
      frame_message(MessageType::kPingRequest, 1, "") +
          frame_message(MessageType::kMarginRequest, 2, margin.encode()) +
          frame_message(MessageType::kStatusResponse, 3,
                        status_responses().front()),
      frame_message(MessageType::kMetricsResponse, std::uint64_t{1} << 63,
                        metrics_responses().front()) +
          frame_message(MessageType::kErrorResponse, 9,
                        error_responses().front()) +
          frame_message(MessageType::kScheduleSleepRequest, 10,
                        schedule_sleep_requests().front()) +
          frame_message(MessageType::kPingResponse, 11, ""),
  };
}

/// What `decode_frame` makes of a stream cut at each declared frame end:
/// the frames before the first refusal, and whether that refusal is a
/// framing error (true) or only an incomplete tail (false, with the
/// tail's size).
struct StreamVerdict {
  std::vector<Frame> frames;
  bool error = false;
  std::size_t tail = 0;
};

StreamVerdict decode_stream(std::string_view bytes) {
  StreamVerdict verdict;
  while (!bytes.empty()) {
    std::string_view slice = bytes;
    if (bytes.size() >= kFrameHeaderSize) {
      std::uint64_t declared = 0;
      for (int i = 7; i >= 0; --i) {
        declared = (declared << 8) |
                   static_cast<unsigned char>(bytes[24 + i]);
      }
      if (declared < bytes.size() - kFrameHeaderSize) {
        slice = bytes.substr(0, kFrameHeaderSize + declared);
      }
    }
    try {
      verdict.frames.push_back(decode_frame(slice));
    } catch (const ProtocolError& e) {
      if (e.violation() == ProtocolViolation::kTruncated) {
        verdict.tail = bytes.size();
      } else {
        verdict.error = true;
      }
      return verdict;
    }
    bytes.remove_prefix(slice.size());
  }
  return verdict;
}

TEST(CodecFuzz, FrameReaderYieldsWhatDecodeFrameYields) {
  // Each mutant stream is fed in random chunks, draining next() after
  // every feed, as the daemon's poll loop does.  The reader must yield
  // exactly the frames decode_frame yields, then raise ProtocolError iff
  // decode_frame refuses a frame, or else hold only the incomplete tail.
  expect_both_outcomes(sweep(frame_streams(), 17, [](const std::string& b) {
    const StreamVerdict expected = decode_stream(b);
    Rng chunks(derive_seed(0xC4u, util::crc32(b)));
    FrameReader reader;
    std::vector<Frame> frames;
    bool error = false;
    try {
      for (std::size_t at = 0; at < b.size();) {
        const std::size_t n =
            1 + chunks.uniform_index(chunks.bernoulli(0.5) ? 8 : b.size());
        reader.feed(std::string_view(b).substr(at, n));
        at += n;
        while (auto frame = reader.next()) frames.push_back(std::move(*frame));
      }
    } catch (const ProtocolError&) {
      error = true;
    }
    EXPECT_EQ(error, expected.error) << "'" << b << "'";
    EXPECT_EQ(frames.size(), expected.frames.size()) << "'" << b << "'";
    for (std::size_t i = 0; i < std::min(frames.size(),
                                         expected.frames.size());
         ++i) {
      EXPECT_EQ(frames[i].type, expected.frames[i].type);
      EXPECT_EQ(frames[i].request_id, expected.frames[i].request_id);
      EXPECT_EQ(frames[i].payload, expected.frames[i].payload);
    }
    if (!error) {
      EXPECT_EQ(reader.buffered(), expected.tail);
    }
    return expected.error ? Outcome::kRejected : Outcome::kRoundTripped;
  }));
}

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
