#include "ash/fleet/protocol.h"

#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/obs/metrics.h"
#include "ash/util/crc32.h"
#include "ash/util/units.h"

namespace ash::fleet {
namespace {

/// A payload with embedded NULs, newlines and high bytes — framing must be
/// 8-bit clean (payload *documents* are text, but the envelope may not
/// assume so).
std::string binary_payload() {
  std::string p = "key value\n";
  p.push_back('\0');
  p += "\xff\xfe tail\n";
  return p;
}

/// Rewrite the declared payload size at offset 24 and recompute the header
/// self-CRC so only the *length* lies — the hostile-length attack an
/// attacker who can compute CRCs would mount.
std::string with_declared_size(std::string frame, std::uint64_t size) {
  for (int i = 0; i < 8; ++i) {
    frame[24 + i] = static_cast<char>((size >> (8 * i)) & 0xFFu);
  }
  const std::uint32_t crc = util::crc32(std::string_view(frame).substr(0, 36));
  for (int i = 0; i < 4; ++i) {
    frame[36 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  return frame;
}

TEST(WireFrame, RoundTripIsBitExact) {
  const std::string payload = binary_payload();
  const std::string bytes =
      frame_message(MessageType::kMarginRequest, 71, payload);
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.type, MessageType::kMarginRequest);
  EXPECT_EQ(frame.request_id, 71u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(WireFrame, EmptyPayloadRoundTrips) {
  const std::string bytes = frame_message(MessageType::kPingRequest, 1, "");
  const Frame frame = decode_frame(bytes);
  EXPECT_EQ(frame.type, MessageType::kPingRequest);
  EXPECT_EQ(frame.payload, "");
  EXPECT_EQ(bytes.size(), kFrameHeaderSize);
}

TEST(WireFrame, TruncationAtEveryByteBoundaryIsRejected) {
  // The torn-write acceptance sweep, identical in spirit to the snapshot
  // store's: a frame cut at ANY byte boundary — mid-magic, mid-header,
  // mid-payload — must be rejected, never decoded partially.
  const std::string bytes =
      frame_message(MessageType::kScheduleSleepRequest, 9, binary_payload());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_frame(bytes.substr(0, cut)), ProtocolError)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_NO_THROW(decode_frame(bytes));
}

TEST(WireFrame, EverySingleBitFlipIsRejected) {
  // Sweep every bit of header AND payload; whichever check fires first
  // (magic, version, length cap, header CRC, payload CRC), the flip must
  // never survive to a decoded frame.
  const std::string bytes =
      frame_message(MessageType::kStatusRequest, 5, "status probe\n");
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string bad = bytes;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_THROW(decode_frame(bad), ProtocolError)
        << "bit " << bit << " flip decoded";
  }
}

TEST(WireFrame, TrailingGarbageIsRejected) {
  const std::string bytes = frame_message(MessageType::kPingRequest, 2, "");
  EXPECT_THROW(decode_frame(bytes + 'x'), ProtocolError);
  EXPECT_THROW(decode_frame(bytes + bytes), ProtocolError);
}

TEST(WireFrame, HostileDeclaredLengthIsRejectedFromHeaderAlone) {
  // A header declaring a 16-exabyte payload — with a *valid* header CRC —
  // must be rejected before any payload byte is buffered.
  const std::string huge = with_declared_size(
      frame_message(MessageType::kPingRequest, 3, ""), ~std::uint64_t{0});
  try {
    decode_frame(huge);
    FAIL() << "hostile length decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("hostile length"), std::string::npos);
  }
  // The incremental reader rejects it as soon as the size field is
  // complete (offset 32) — it never waits for, or allocates, the payload.
  FrameReader reader;
  EXPECT_THROW(reader.feed(huge.substr(0, 32)), ProtocolError);
  EXPECT_TRUE(reader.poisoned());
}

TEST(WireFrame, OversizedPayloadRefusesToFrame) {
  const std::string big(kMaxFramePayload + 1, 'p');
  EXPECT_THROW(frame_message(MessageType::kPingRequest, 1, big),
               ProtocolError);
}

/// An empty ping frame retyped to `type` with every CRC valid: the
/// envelope verifies, only the type can be wrong.
std::string frame_of_type(int type) {
  std::string bytes = frame_message(MessageType::kPingRequest, 4, "");
  bytes[12] = static_cast<char>(type);
  const std::uint32_t crc = util::crc32(std::string_view(bytes).substr(0, 36));
  for (int i = 0; i < 4; ++i) {
    bytes[36 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  return bytes;
}

TEST(WireFrame, UnknownMessageTypeIsRejected) {
  try {
    decode_frame(frame_of_type(99));
    FAIL() << "unknown type decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown message type"),
              std::string::npos);
  }
}

TEST(WireFrame, UnassignedTypesAreRejectedAsUnknown) {
  // 12 pads the odd/even pairing; 15/16 were the retired kernel-profile
  // scrape and 17/18 the retired health scrape.  A verified envelope of
  // any of them is refused at decode, by decode_frame and by the stream
  // reader alike.
  for (const int type : {12, 15, 16, 17, 18}) {
    EXPECT_FALSE(known_message_type(static_cast<std::uint32_t>(type)))
        << type;
    try {
      decode_frame(frame_of_type(type));
      ADD_FAILURE() << "type " << type << " decoded";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.violation(), ProtocolViolation::kUnknownType) << type;
    }
    FrameReader reader;
    reader.feed(frame_of_type(type));
    try {
      (void)reader.next();
      ADD_FAILURE() << "type " << type << " read";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.violation(), ProtocolViolation::kUnknownType) << type;
    }
    EXPECT_TRUE(reader.poisoned()) << type;
  }
}

TEST(WireFrame, ErrorMessagesNameTheFailure) {
  const std::string bytes =
      frame_message(MessageType::kMarginRequest, 6, binary_payload());
  try {
    decode_frame(bytes.substr(0, bytes.size() - 2));
    FAIL() << "torn payload decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("torn write"), std::string::npos);
  }
  try {
    decode_frame(bytes + "zz");
    FAIL() << "trailing garbage decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos);
  }
  try {
    decode_frame("HTTP/1.1 GET / please serve me a margin estimate\r\n");
    FAIL() << "foreign bytes decoded";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(FrameReaderTest, ByteAtATimeStreamYieldsFramesInOrder) {
  const std::string a = frame_message(MessageType::kPingRequest, 1, "");
  const std::string b =
      frame_message(MessageType::kStatusRequest, 2, binary_payload());
  const std::string wire = a + b;
  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : wire) {
    reader.feed(std::string_view(&byte, 1));
    while (auto frame = reader.next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kPingRequest);
  EXPECT_EQ(frames[0].request_id, 1u);
  EXPECT_EQ(frames[1].type, MessageType::kStatusRequest);
  EXPECT_EQ(frames[1].payload, binary_payload());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameReaderTest, GarbageAtEveryOffsetPoisonsTheReader) {
  // Corrupt one byte at every offset of a valid frame and stream the
  // result: the reader must either throw (poisoned) or never yield a
  // frame — at no offset may corrupt input decode.
  const std::string good =
      frame_message(MessageType::kRejuvenationRequest, 8, "epoch_s 86400\n");
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] + 1);
    FrameReader reader;
    bool decoded = false;
    try {
      reader.feed(bad);
      decoded = reader.next().has_value();
    } catch (const ProtocolError&) {
      EXPECT_TRUE(reader.poisoned()) << "offset " << at;
    }
    EXPECT_FALSE(decoded) << "corrupt byte at offset " << at << " decoded";
  }
}

TEST(FrameReaderTest, FirstWrongMagicByteIsRejectedImmediately) {
  FrameReader reader;
  EXPECT_THROW(reader.feed("G"), ProtocolError);  // 'G' != 'A' at offset 0
  EXPECT_TRUE(reader.poisoned());
  EXPECT_THROW(reader.feed("ET"), ProtocolError);  // poisoned stays poisoned
  EXPECT_THROW(reader.next(), ProtocolError);
}

TEST(FrameReaderTest, IncompleteFrameIsHeldNotDecoded) {
  const std::string bytes =
      frame_message(MessageType::kMarginRequest, 7, binary_payload());
  FrameReader reader;
  reader.feed(bytes.substr(0, bytes.size() - 1));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), bytes.size() - 1);
  reader.feed(bytes.substr(bytes.size() - 1));
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, binary_payload());
}

// ---------------------------------------------------------------------------
// Payload codecs: strong-unit round trips and strict-document rejection.
// ---------------------------------------------------------------------------

TEST(PayloadCodec, MarginRequestRoundTripsBitExactDoubles) {
  MarginRequest req;
  req.device_id = 17;
  req.duty = 0.1 + 0.2;  // famously not 0.3
  req.vdd = Volts{1.0 / 3.0};
  req.temp = Celsius{81.234567890123456};
  req.horizon = Seconds{3.0e8 + 1.0 / 7.0};
  const MarginRequest back = MarginRequest::parse(req.encode());
  EXPECT_EQ(back.device_id, req.device_id);
  EXPECT_EQ(back.duty, req.duty);  // bit-exact, hence EQ not NEAR
  EXPECT_EQ(back.vdd.value(), req.vdd.value());
  EXPECT_EQ(back.temp.value(), req.temp.value());
  EXPECT_EQ(back.horizon.value(), req.horizon.value());
  // Canonical encoding: re-encoding the parsed struct reproduces the bytes.
  EXPECT_EQ(back.encode(), req.encode());
}

TEST(PayloadCodec, AllResponseTypesRoundTrip) {
  MarginResponse margin;
  margin.status = Status::kOk;
  margin.crosses = true;
  margin.time_to_margin = Seconds{12345.6789};
  margin.delta_vth = Volts{7.5e-3};
  margin.margin = Volts{12e-3};
  const MarginResponse margin2 = MarginResponse::parse(margin.encode());
  EXPECT_EQ(margin2.crosses, true);
  EXPECT_EQ(margin2.time_to_margin.value(), margin.time_to_margin.value());

  RejuvenationResponse rejuv;
  rejuv.any = true;
  rejuv.shard_id = 3;
  rejuv.degradation = 0.0123456789;
  const RejuvenationResponse rejuv2 =
      RejuvenationResponse::parse(rejuv.encode());
  EXPECT_EQ(rejuv2.shard_id, 3);
  EXPECT_EQ(rejuv2.degradation, rejuv.degradation);

  ScheduleSleepResponse sleep;
  sleep.newly_applied = true;
  sleep.windows = 4;
  const ScheduleSleepResponse sleep2 =
      ScheduleSleepResponse::parse(sleep.encode());
  EXPECT_TRUE(sleep2.newly_applied);
  EXPECT_EQ(sleep2.windows, 4u);

  StatusResponse status;
  status.devices = 64;
  status.windows = 9;
  status.sequence = 42;
  status.draining = true;
  const StatusResponse status2 = StatusResponse::parse(status.encode());
  EXPECT_EQ(status2.sequence, 42u);
  EXPECT_TRUE(status2.draining);

  ErrorResponse error;
  error.status = Status::kOverloaded;
  error.message = "request queue full (8 admitted per tick)";
  const ErrorResponse error2 = ErrorResponse::parse(error.encode());
  EXPECT_EQ(error2.status, Status::kOverloaded);
  EXPECT_EQ(error2.message, error.message);
}

TEST(PayloadCodec, StrictDocumentRejectsHostileShapes) {
  const std::string good = MarginRequest().encode();
  // Missing field.
  EXPECT_THROW(MarginRequest::parse("device 0\nduty 0.5\n"), ProtocolError);
  // Unknown field (valid CRC wouldn't save it; the schema is closed).
  EXPECT_THROW(MarginRequest::parse(good + "evil 1\n"), ProtocolError);
  // Duplicate field.
  EXPECT_THROW(MarginRequest::parse(good + "device 0\n"), ProtocolError);
  // Line without terminator.
  EXPECT_THROW(MarginRequest::parse("device 0"), ProtocolError);
  // Empty-key line.
  EXPECT_THROW(MarginRequest::parse(" 0\n" + good), ProtocolError);
  // Ping/status requests carry no fields — anything present is hostile.
  EXPECT_NO_THROW(StatusRequest::parse(""));
  EXPECT_THROW(StatusRequest::parse("x 1\n"), ProtocolError);
}

TEST(PayloadCodec, PingPayloadsAreEmptyByDefinition) {
  EXPECT_TRUE(PingRequest{}.encode().empty());
  EXPECT_TRUE(PingResponse{}.encode().empty());
  EXPECT_NO_THROW(PingRequest::parse(""));
  EXPECT_NO_THROW(PingResponse::parse(""));
  // A liveness probe carrying data is hostile by definition — the closed
  // (empty) schema rejects any field, valid grammar or not.
  EXPECT_THROW(PingRequest::parse("x 1\n"), ProtocolError);
  EXPECT_THROW(PingResponse::parse("evil 1\n"), ProtocolError);
  EXPECT_THROW(PingRequest::parse("no terminator"), ProtocolError);
  // The framing layer carries them as ordinary verbs.
  const Frame f = decode_frame(frame_message(MessageType::kPingResponse, 7,
                                             PingResponse{}.encode()));
  EXPECT_EQ(f.type, MessageType::kPingResponse);
  EXPECT_TRUE(f.payload.empty());
}

TEST(PayloadCodec, RejuvenationResponseRejectsHostileDocuments) {
  // The well-formed kRejuvenationResponse document round-trips.
  RejuvenationResponse r;
  r.any = true;
  r.shard_id = 3;
  r.degradation = 0.25;
  const std::string good = r.encode();
  const RejuvenationResponse r2 = RejuvenationResponse::parse(good);
  EXPECT_EQ(r2.shard_id, 3);
  EXPECT_DOUBLE_EQ(r2.degradation, 0.25);
  // Hostile shapes: missing field, unknown field, non-boolean flag,
  // out-of-range shard id, non-finite degradation.
  EXPECT_THROW(RejuvenationResponse::parse("status ok\nany 1\n"),
               ProtocolError);
  EXPECT_THROW(RejuvenationResponse::parse(good + "evil 1\n"),
               ProtocolError);
  EXPECT_THROW(
      RejuvenationResponse::parse(
          "status ok\nany yes\nshard 0\ndegradation 0\n"),
      ProtocolError);
  EXPECT_THROW(
      RejuvenationResponse::parse(
          "status ok\nany 1\nshard -2\ndegradation 0\n"),
      ProtocolError);
  EXPECT_THROW(
      RejuvenationResponse::parse(
          "status ok\nany 1\nshard 0\ndegradation nan\n"),
      ProtocolError);
}

TEST(PayloadCodec, StatusResponseRejectsHostileDocuments) {
  // The well-formed kStatusResponse document round-trips (exercised in
  // PayloadCodec.AllResponseTypesRoundTrip); here every field is attacked.
  const std::string good = StatusResponse().encode();
  EXPECT_THROW(StatusResponse::parse(""), ProtocolError);
  EXPECT_THROW(StatusResponse::parse(good + "evil 1\n"), ProtocolError);
  EXPECT_THROW(StatusResponse::parse(good + "devices 0\n"), ProtocolError);
  EXPECT_THROW(
      StatusResponse::parse("status weird\ndevices 0\nwindows 0\n"
                            "sequence 0\ndraining 0\n"),
      ProtocolError);
  EXPECT_THROW(
      StatusResponse::parse("status ok\ndevices -1\nwindows 0\n"
                            "sequence 0\ndraining 0\n"),
      ProtocolError);
  EXPECT_THROW(
      StatusResponse::parse("status ok\ndevices 0\nwindows 0\n"
                            "sequence 0\ndraining maybe\n"),
      ProtocolError);
}

TEST(PayloadCodec, NumericFieldsRejectHostileValues) {
  auto patched = [&](const std::string& key, const std::string& value) {
    // Rebuild the document with one field replaced.
    const std::string lines[] = {"device 3", "duty 0.5", "vdd_v 1.2",
                                 "temp_c 80", "horizon_s 3600"};
    std::string out;
    for (const std::string& line : lines) {
      const std::string k = line.substr(0, line.find(' '));
      out += (k == key) ? (k + " " + value) : line;
      out += '\n';
    }
    return out;
  };
  // Non-finite numbers.
  EXPECT_THROW(MarginRequest::parse(patched("duty", "nan")), ProtocolError);
  EXPECT_THROW(MarginRequest::parse(patched("horizon_s", "inf")),
               ProtocolError);
  // Range violations.
  EXPECT_THROW(MarginRequest::parse(patched("duty", "1.5")), ProtocolError);
  EXPECT_THROW(MarginRequest::parse(patched("duty", "-0.1")), ProtocolError);
  EXPECT_THROW(MarginRequest::parse(patched("temp_c", "-400")),
               ProtocolError);
  EXPECT_THROW(MarginRequest::parse(patched("horizon_s", "-1")),
               ProtocolError);
  // Trailing junk after the number.
  EXPECT_THROW(MarginRequest::parse(patched("duty", "0.5x")), ProtocolError);
  // Unsigned-integer fields: sign, overflow, garbage.
  EXPECT_THROW(MarginRequest::parse(patched("device", "-1")), ProtocolError);
  EXPECT_THROW(
      MarginRequest::parse(patched("device", "99999999999999999999999")),
      ProtocolError);
  EXPECT_THROW(MarginRequest::parse(patched("device", "0x10")),
               ProtocolError);
  // Booleans are strictly 0/1.
  EXPECT_THROW(ScheduleSleepResponse::parse(
                   "status ok\nnewly_applied yes\nwindows 1\n"),
               ProtocolError);
  // Unknown status string.
  EXPECT_THROW(ScheduleSleepResponse::parse(
                   "status weird\nnewly_applied 1\nwindows 1\n"),
               ProtocolError);
}

/// Number spellings `strtod` took that the strict `ash::parse_double` now
/// refuses: leading space or '+', hex, out-of-range decimals, inf and nan.
const char* const kStrtodOnlySpellings[] = {" 1",    "+1",  "0x1p3", "1e-400",
                                            "1e400", "inf", "nan"};

TEST(PayloadCodec, StrtodOnlyNumberSpellingsAreRejected) {
  const std::string lines[] = {"device 3", "duty 0.5", "vdd_v 1.2",
                               "temp_c 80", "horizon_s 3600"};
  for (const char* spelling : kStrtodOnlySpellings) {
    for (const char* key : {"duty", "vdd_v", "temp_c", "horizon_s"}) {
      std::string doc;
      for (const std::string& line : lines) {
        const std::string k = line.substr(0, line.find(' '));
        doc += (k == key ? k + " " + spelling : line) + "\n";
      }
      EXPECT_THROW(MarginRequest::parse(doc), ProtocolError)
          << key << " '" << spelling << "'";
    }
    const std::string head = "status ok\nmargin_v 0.012\nrows 1\n";
    EXPECT_THROW(MarginBatchResponse::parse(head + "row 1 1 " + spelling +
                                            " 0.01\n"),
                 ProtocolError)
        << "time_to_margin_s '" << spelling << "'";
    EXPECT_THROW(MarginBatchResponse::parse(head + "row 1 1 5 " + spelling +
                                            "\n"),
                 ProtocolError)
        << "delta_vth_v '" << spelling << "'";
  }
}

TEST(PayloadCodec, MessageTypeNamesAreStable) {
  EXPECT_STREQ(to_string(MessageType::kMarginRequest), "margin-request");
  EXPECT_STREQ(to_string(Status::kOverloaded), "overloaded");
  EXPECT_TRUE(known_message_type(1));
  EXPECT_TRUE(known_message_type(11));
  EXPECT_FALSE(known_message_type(0));
  EXPECT_FALSE(known_message_type(12));
  // The volatile scrape channel is metrics 13/14 alone; 15..18 are
  // retired scrapes.
  EXPECT_STREQ(to_string(MessageType::kMetricsRequest), "metrics-request");
  EXPECT_TRUE(known_message_type(13));
  EXPECT_TRUE(known_message_type(14));
  for (std::uint32_t raw = 15; raw <= 18; ++raw) {
    EXPECT_FALSE(known_message_type(raw)) << raw;
  }
  // The margin batch (19/20) follows the retired block: deterministic
  // science payload, transcripted like its single-device sibling.
  EXPECT_STREQ(to_string(MessageType::kMarginBatchRequest),
               "margin-batch-request");
  EXPECT_TRUE(known_message_type(19));
  EXPECT_TRUE(known_message_type(20));
  EXPECT_FALSE(known_message_type(21));
}

TEST(PayloadCodec, MarginBatchRequestRoundTripAndRejection) {
  MarginBatchRequest req;
  req.device_ids = {0, 7, 3};
  req.duty = 0.25;
  req.vdd = Volts{1.1};
  req.temp = Celsius{95.0};
  req.horizon = Seconds{3.15e8};
  const MarginBatchRequest back = MarginBatchRequest::parse(req.encode());
  EXPECT_EQ(back.device_ids, req.device_ids);
  EXPECT_EQ(back.duty, req.duty);
  EXPECT_EQ(back.vdd.value(), req.vdd.value());
  EXPECT_EQ(back.temp.value(), req.temp.value());
  EXPECT_EQ(back.horizon.value(), req.horizon.value());

  // An empty batch is legal on the wire (the service answers zero rows).
  MarginBatchRequest empty;
  empty.device_ids = {};
  EXPECT_TRUE(MarginBatchRequest::parse(empty.encode()).device_ids.empty());

  const auto payload = [&](const char* devices_block) {
    return std::string("duty 0.5\nvdd_v 1.2\ntemp_c 80\nhorizon_s 1000\n") +
           devices_block;
  };
  // Hostile row count, declared-vs-actual mismatch, junk rows.
  EXPECT_THROW(MarginBatchRequest::parse(payload("devices 1000000\n")),
               ProtocolError);
  EXPECT_THROW(MarginBatchRequest::parse(payload("devices 2\ndevice 1\n")),
               ProtocolError);
  EXPECT_THROW(
      MarginBatchRequest::parse(payload("devices 1\ndevice -3\n")),
      ProtocolError);
  EXPECT_THROW(
      MarginBatchRequest::parse(payload("devices 0\ndevice 1\n")),
      ProtocolError);  // trailing bytes
  // Out-of-range schedule fields.
  EXPECT_THROW(MarginBatchRequest::parse(
                   "duty 1.5\nvdd_v 1.2\ntemp_c 80\nhorizon_s 1\ndevices 0\n"),
               ProtocolError);
  EXPECT_THROW(MarginBatchRequest::parse(
                   "duty 0.5\nvdd_v 9\ntemp_c 80\nhorizon_s 1\ndevices 0\n"),
               ProtocolError);
  EXPECT_THROW(MarginBatchRequest::parse(
                   "duty 0.5\nvdd_v 1.2\ntemp_c 80\nhorizon_s -1\ndevices 0\n"),
               ProtocolError);
}

TEST(PayloadCodec, MarginBatchResponseRoundTripAndRejection) {
  MarginBatchResponse resp;
  resp.status = Status::kOk;
  resp.margin = Volts{12e-3};
  resp.rows = {{0, true, Seconds{123.25}, Volts{0.011}},
               {42, false, Seconds{3.15e8}, Volts{0.0005}}};
  const MarginBatchResponse back = MarginBatchResponse::parse(resp.encode());
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.margin.value(), resp.margin.value());
  for (std::size_t i = 0; i < back.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].device_id, resp.rows[i].device_id);
    EXPECT_EQ(back.rows[i].crosses, resp.rows[i].crosses);
    EXPECT_EQ(back.rows[i].time_to_margin.value(),
              resp.rows[i].time_to_margin.value());
    EXPECT_EQ(back.rows[i].delta_vth.value(), resp.rows[i].delta_vth.value());
  }

  const std::string head = "status ok\nmargin_v 0.012\n";
  EXPECT_THROW(MarginBatchResponse::parse(head + "rows 1000000\n"),
               ProtocolError);
  EXPECT_THROW(MarginBatchResponse::parse(head + "rows 1\nrow 1 2 3\n"),
               ProtocolError);  // too few tokens
  EXPECT_THROW(MarginBatchResponse::parse(head + "rows 1\nrow 1 yes 3 4\n"),
               ProtocolError);  // crosses not 0/1
  EXPECT_THROW(
      MarginBatchResponse::parse(head + "rows 1\nrow 1 1 -5 0.01\n"),
      ProtocolError);  // negative time_to_margin
}

TEST(ScrapeCodec, MetricsRoundTripIncludingRawText) {
  MetricsRequest req;
  req.prefix = "fleet.service.";
  const auto req2 = MetricsRequest::parse(req.encode());
  EXPECT_EQ(req2.prefix, req.prefix);
  // Empty prefix survives ("" means everything).
  EXPECT_EQ(MetricsRequest::parse(MetricsRequest{}.encode()).prefix, "");

  MetricsResponse resp;
  resp.status = Status::kOk;
  // Metric lines use '=', blank lines and arbitrary text — the response
  // body is length-prefixed raw text, not a strict document.
  resp.text = "a.count=3\na.sum=0.25\n\nweird = line\n";
  const auto resp2 = MetricsResponse::parse(resp.encode());
  EXPECT_EQ(resp2.status, Status::kOk);
  EXPECT_EQ(resp2.text, resp.text);
  // A lying length prefix is rejected, not buffered past the payload.
  EXPECT_THROW(MetricsResponse::parse("status ok\nbytes 9999\nshort"),
               ProtocolError);
}

TEST(ProtocolTalliesTest, SweepRejectionsMatchPublishedMetricsBitForBit) {
  // Re-run the truncation and bit-flip sweeps keeping this test's OWN
  // per-class tally (from the violation each ProtocolError carries), then
  // require the global tallies AND the published fleet.protocol.* counters
  // to agree with it bit-for-bit.  The wire-level reject choke point and
  // the metrics view can never drift apart unnoticed.
  auto& tallies = protocol_tallies();
  tallies.reset();
  std::array<std::uint64_t,
             static_cast<std::size_t>(ProtocolViolation::kCount)>
      expected{};
  std::uint64_t expected_decoded = 0;
  const auto count_rejection = [&](const ProtocolError& e) {
    ASSERT_NE(e.violation(), ProtocolViolation::kNone)
        << "wire rejection without a violation class: " << e.what();
    ++expected[static_cast<std::size_t>(e.violation())];
  };

  const std::string bytes =
      frame_message(MessageType::kStatusRequest, 5, "status probe\n");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)decode_frame(bytes.substr(0, cut));
      FAIL() << "prefix of " << cut << " bytes decoded";
    } catch (const ProtocolError& e) {
      count_rejection(e);
    }
  }
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string bad = bytes;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    try {
      (void)decode_frame(bad);
      FAIL() << "bit " << bit << " flip decoded";
    } catch (const ProtocolError& e) {
      count_rejection(e);
    }
  }
  try {
    (void)decode_frame(bytes + 'x');
    FAIL() << "trailing garbage decoded";
  } catch (const ProtocolError& e) {
    count_rejection(e);
  }
  (void)decode_frame(bytes);
  ++expected_decoded;

  // The sweep must have exercised several distinct violation classes.
  EXPECT_GT(expected[static_cast<std::size_t>(ProtocolViolation::kBadMagic)],
            0u);
  EXPECT_GT(expected[static_cast<std::size_t>(ProtocolViolation::kHeaderCrc)],
            0u);
  EXPECT_GT(
      expected[static_cast<std::size_t>(ProtocolViolation::kPayloadCrc)], 0u);
  EXPECT_GT(expected[static_cast<std::size_t>(ProtocolViolation::kTruncated)],
            0u);

  std::uint64_t expected_total = 0;
  for (int v = 1; v < static_cast<int>(ProtocolViolation::kCount); ++v) {
    const auto violation = static_cast<ProtocolViolation>(v);
    EXPECT_EQ(tallies.rejected(violation),
              expected[static_cast<std::size_t>(v)])
        << to_string(violation);
    expected_total += expected[static_cast<std::size_t>(v)];
  }
  EXPECT_EQ(tallies.rejected_total(), expected_total);
  EXPECT_EQ(tallies.decoded(), expected_decoded);

  obs::Registry registry;
  tallies.publish(registry);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("fleet.protocol.frames_decoded"), expected_decoded);
  EXPECT_EQ(snap.counter("fleet.protocol.rejected.total"), expected_total);
  const std::pair<ProtocolViolation, const char*> kSuffixes[] = {
      {ProtocolViolation::kBadMagic, "fleet.protocol.rejected.bad_magic"},
      {ProtocolViolation::kBadVersion, "fleet.protocol.rejected.bad_version"},
      {ProtocolViolation::kHostileLength,
       "fleet.protocol.rejected.hostile_length"},
      {ProtocolViolation::kHeaderCrc, "fleet.protocol.rejected.header_crc"},
      {ProtocolViolation::kPayloadCrc, "fleet.protocol.rejected.payload_crc"},
      {ProtocolViolation::kUnknownType,
       "fleet.protocol.rejected.unknown_type"},
      {ProtocolViolation::kTruncated, "fleet.protocol.rejected.truncated"},
      {ProtocolViolation::kTrailingGarbage,
       "fleet.protocol.rejected.trailing_garbage"},
  };
  for (const auto& [violation, name] : kSuffixes) {
    EXPECT_EQ(snap.counter(name),
              expected[static_cast<std::size_t>(violation)])
        << name;
  }
  tallies.reset();
  EXPECT_EQ(tallies.rejected_total(), 0u);
  EXPECT_EQ(tallies.decoded(), 0u);
}

}  // namespace
}  // namespace ash::fleet
