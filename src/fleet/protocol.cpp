#include "ash/fleet/protocol.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <optional>

#include "ash/obs/metrics.h"
#include "ash/util/crc32.h"
#include "ash/util/double_codec.h"
#include "ash/util/text_reader.h"

namespace ash::fleet {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'H', 'F', 'L', 'T', 'Q', '1'};

/// The single choke point for framing rejections: count the violation into
/// the process-global tallies, then throw.  Payload *document* errors
/// bypass this (they construct ProtocolError directly with kNone), so the
/// tallies count framing violations and nothing else.
[[noreturn]] void reject(ProtocolViolation violation, const std::string& what) {
  protocol_tallies().count(violation);
  throw ProtocolError(what, violation);
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

/// Earliest-offset validation of a (possibly partial) frame prefix.
/// Returns the total frame size once the header is complete and valid, 0
/// when more bytes are needed.  Throws ProtocolError at the first byte
/// that proves the input is not a frame.
std::uint64_t check_frame_prefix(std::string_view bytes,
                                 std::uint64_t max_payload) {
  const std::size_t magic_len = std::min(bytes.size(), sizeof kMagic);
  if (std::memcmp(bytes.data(), kMagic, magic_len) != 0) {
    reject(ProtocolViolation::kBadMagic, "bad magic: not an ash-fleet frame");
  }
  if (bytes.size() < 12) return 0;
  const std::uint32_t version = get_u32(bytes, 8);
  if (version != kProtocolVersion) {
    reject(ProtocolViolation::kBadVersion,
           "unsupported protocol version " + std::to_string(version));
  }
  if (bytes.size() < 32) return 0;
  const std::uint64_t payload_size = get_u64(bytes, 24);
  if (payload_size > max_payload) {
    reject(ProtocolViolation::kHostileLength,
           "declared payload of " + std::to_string(payload_size) +
               " bytes exceeds the " + std::to_string(max_payload) +
               "-byte cap (hostile length)");
  }
  if (bytes.size() < kFrameHeaderSize) return 0;
  const std::uint32_t header_crc = get_u32(bytes, 36);
  if (util::crc32(bytes.substr(0, 36)) != header_crc) {
    reject(ProtocolViolation::kHeaderCrc,
           "header CRC mismatch (tampered or torn header)");
  }
  return kFrameHeaderSize + payload_size;
}

/// Unwrap a frame whose header has already passed check_frame_prefix and
/// whose `total` bytes are all present.
Frame finish_frame(std::string_view bytes) {
  const std::uint32_t payload_crc = get_u32(bytes, 32);
  if (util::crc32(bytes.substr(kFrameHeaderSize)) != payload_crc) {
    reject(ProtocolViolation::kPayloadCrc,
           "payload CRC mismatch (bit rot or tampering)");
  }
  const std::uint32_t raw_type = get_u32(bytes, 12);
  if (!known_message_type(raw_type)) {
    reject(ProtocolViolation::kUnknownType,
           "unknown message type " + std::to_string(raw_type));
  }
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.request_id = get_u64(bytes, 16);
  frame.payload = std::string(bytes.substr(kFrameHeaderSize));
  protocol_tallies().count_decoded();
  return frame;
}

// -------------------------------------------------------------------------
// Text-document payload helpers.  Payloads are util::text_reader documents:
// every key required exactly once, no unknown keys, every number finite.
// Hostile payloads with a valid CRC (an attacker can compute CRCs) die in
// the reader, field by field, as ProtocolError.
// -------------------------------------------------------------------------

void put_field(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

[[noreturn]] void payload_error(const std::string& detail) {
  throw ProtocolError(detail);
}

/// A whole payload of `key value` lines over `schema`.
util::KeyedDoc doc_of(std::string_view payload,
                      std::initializer_list<const char*> schema) {
  return util::KeyedDoc(payload, schema, payload_error);
}

Status parse_status(const util::Field& field) {
  const std::string_view v = field.text();
  if (v == "ok") return Status::kOk;
  if (v == "overloaded") return Status::kOverloaded;
  if (v == "bad-request") return Status::kBadRequest;
  if (v == "unknown-device") return Status::kUnknownDevice;
  if (v == "shutting-down") return Status::kShuttingDown;
  throw ProtocolError("unknown status '" + std::string(v) + "'");
}

/// A non-negative duration field (hostile negative horizons rejected).
Seconds get_seconds(const util::Field& field) {
  return Seconds{field.number_in(0.0, 1e18)};
}

}  // namespace

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kPingRequest: return "ping-request";
    case MessageType::kPingResponse: return "ping-response";
    case MessageType::kMarginRequest: return "margin-request";
    case MessageType::kMarginResponse: return "margin-response";
    case MessageType::kRejuvenationRequest: return "rejuvenation-request";
    case MessageType::kRejuvenationResponse: return "rejuvenation-response";
    case MessageType::kScheduleSleepRequest: return "schedule-sleep-request";
    case MessageType::kScheduleSleepResponse: return "schedule-sleep-response";
    case MessageType::kStatusRequest: return "status-request";
    case MessageType::kStatusResponse: return "status-response";
    case MessageType::kErrorResponse: return "error-response";
    case MessageType::kMetricsRequest: return "metrics-request";
    case MessageType::kMetricsResponse: return "metrics-response";
    case MessageType::kMarginBatchRequest: return "margin-batch-request";
    case MessageType::kMarginBatchResponse: return "margin-batch-response";
  }
  return "unknown";
}

bool known_message_type(std::uint32_t raw) {
  // 12 and 15..18 are unassigned (see MessageType).
  const auto in = [raw](MessageType lo, MessageType hi) {
    return raw >= static_cast<std::uint32_t>(lo) &&
           raw <= static_cast<std::uint32_t>(hi);
  };
  return in(MessageType::kPingRequest, MessageType::kErrorResponse) ||
         in(MessageType::kMetricsRequest, MessageType::kMetricsResponse) ||
         in(MessageType::kMarginBatchRequest,
            MessageType::kMarginBatchResponse);
}

const char* to_string(ProtocolViolation violation) {
  switch (violation) {
    case ProtocolViolation::kNone: return "none";
    case ProtocolViolation::kBadMagic: return "bad-magic";
    case ProtocolViolation::kBadVersion: return "bad-version";
    case ProtocolViolation::kHostileLength: return "hostile-length";
    case ProtocolViolation::kHeaderCrc: return "header-crc";
    case ProtocolViolation::kPayloadCrc: return "payload-crc";
    case ProtocolViolation::kUnknownType: return "unknown-type";
    case ProtocolViolation::kTruncated: return "truncated";
    case ProtocolViolation::kTrailingGarbage: return "trailing-garbage";
    case ProtocolViolation::kCount: break;
  }
  return "unknown";
}

namespace {

/// Metric-name suffix for a violation class ([a-z0-9_.]+ discipline).
const char* metric_suffix(ProtocolViolation violation) {
  switch (violation) {
    case ProtocolViolation::kBadMagic: return "bad_magic";
    case ProtocolViolation::kBadVersion: return "bad_version";
    case ProtocolViolation::kHostileLength: return "hostile_length";
    case ProtocolViolation::kHeaderCrc: return "header_crc";
    case ProtocolViolation::kPayloadCrc: return "payload_crc";
    case ProtocolViolation::kUnknownType: return "unknown_type";
    case ProtocolViolation::kTruncated: return "truncated";
    case ProtocolViolation::kTrailingGarbage: return "trailing_garbage";
    case ProtocolViolation::kNone:
    case ProtocolViolation::kCount: break;
  }
  return "unknown";
}

}  // namespace

void ProtocolTallies::count(ProtocolViolation violation) {
  rejected_[static_cast<std::size_t>(violation)].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t ProtocolTallies::rejected(ProtocolViolation violation) const {
  return rejected_[static_cast<std::size_t>(violation)].load(
      std::memory_order_relaxed);
}

std::uint64_t ProtocolTallies::rejected_total() const {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < rejected_.size(); ++i) {
    total += rejected_[i].load(std::memory_order_relaxed);
  }
  return total;
}

void ProtocolTallies::publish(obs::Registry& registry,
                              std::string_view prefix) const {
  const std::string p(prefix);
  registry.counter(p + "frames_decoded").set(decoded());
  for (std::size_t i = 1;
       i < static_cast<std::size_t>(ProtocolViolation::kCount); ++i) {
    const auto violation = static_cast<ProtocolViolation>(i);
    registry.counter(p + "rejected." + metric_suffix(violation))
        .set(rejected(violation));
  }
  registry.counter(p + "rejected.total").set(rejected_total());
}

void ProtocolTallies::reset() {
  decoded_.store(0, std::memory_order_relaxed);
  for (auto& r : rejected_) r.store(0, std::memory_order_relaxed);
}

ProtocolTallies& protocol_tallies() {
  static ProtocolTallies tallies;
  return tallies;
}

const char* to_string(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kBadRequest: return "bad-request";
    case Status::kUnknownDevice: return "unknown-device";
    case Status::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

std::string frame_message(MessageType type, std::uint64_t request_id,
                          std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("refusing to frame a " +
                        std::to_string(payload.size()) + "-byte payload");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kProtocolVersion);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_u64(out, request_id);
  put_u64(out, payload.size());
  put_u32(out, util::crc32(payload));
  put_u32(out, util::crc32(out));  // header self-check over bytes 0..35
  out.append(payload);
  return out;
}

Frame decode_frame(std::string_view bytes, std::uint64_t max_payload) {
  const std::uint64_t total = check_frame_prefix(bytes, max_payload);
  if (total == 0) {
    reject(ProtocolViolation::kTruncated,
           "frame truncated: " + std::to_string(bytes.size()) +
               " bytes, header needs " + std::to_string(kFrameHeaderSize));
  }
  if (bytes.size() < total) {
    reject(ProtocolViolation::kTruncated,
           "frame truncated: header declares " + std::to_string(total) +
               " bytes, got " + std::to_string(bytes.size()) +
               " (torn write)");
  }
  if (bytes.size() > total) {
    reject(ProtocolViolation::kTrailingGarbage,
           "trailing garbage: " + std::to_string(bytes.size() - total) +
               " bytes beyond the declared frame");
  }
  return finish_frame(bytes);
}

FrameReader::FrameReader(std::uint64_t max_payload)
    : max_payload_(max_payload) {}

void FrameReader::check_prefix() {
  // Throws at the earliest offset that proves the buffer invalid; a valid
  // prefix (complete or not) passes silently.
  (void)check_frame_prefix(buffer_, max_payload_);
}

void FrameReader::feed(std::string_view bytes) {
  if (poisoned_) {
    throw ProtocolError("frame reader poisoned by an earlier violation");
  }
  buffer_.append(bytes);
  try {
    check_prefix();
  } catch (const ProtocolError&) {
    poisoned_ = true;
    throw;
  }
}

std::optional<Frame> FrameReader::next() {
  if (poisoned_) {
    throw ProtocolError("frame reader poisoned by an earlier violation");
  }
  try {
    const std::uint64_t total = check_frame_prefix(buffer_, max_payload_);
    if (total == 0 || buffer_.size() < total) return std::nullopt;
    Frame frame = finish_frame(std::string_view(buffer_).substr(0, total));
    buffer_.erase(0, total);
    return frame;
  } catch (const ProtocolError&) {
    poisoned_ = true;
    throw;
  }
}

// -------------------------------------------------------------------------
// Payload codecs.
// -------------------------------------------------------------------------

std::string PingRequest::encode() const { return {}; }

PingRequest PingRequest::parse(std::string_view payload) {
  (void)doc_of(payload, {});
  return {};
}

std::string PingResponse::encode() const { return {}; }

PingResponse PingResponse::parse(std::string_view payload) {
  (void)doc_of(payload, {});
  return {};
}

std::string MarginRequest::encode() const {
  std::string out;
  put_field(out, "device", std::to_string(device_id));
  put_field(out, "duty", fmt_double(duty));
  put_field(out, "vdd_v", fmt_double(vdd.value()));
  put_field(out, "temp_c", fmt_double(temp.value()));
  put_field(out, "horizon_s", fmt_double(horizon.value()));
  return out;
}

MarginRequest MarginRequest::parse(std::string_view payload) {
  const auto doc =
      doc_of(payload, {"device", "duty", "vdd_v", "temp_c", "horizon_s"});
  MarginRequest out;
  out.device_id = doc["device"].u64();
  out.duty = doc["duty"].number_in(0.0, 1.0);
  out.vdd = Volts{doc["vdd_v"].number_in(-5.0, 5.0)};
  out.temp = Celsius{doc["temp_c"].number_in(-273.15, 300.0)};
  out.horizon = get_seconds(doc["horizon_s"]);
  return out;
}

std::string MarginResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "crosses", crosses ? "1" : "0");
  put_field(out, "time_to_margin_s", fmt_double(time_to_margin.value()));
  put_field(out, "delta_vth_v", fmt_double(delta_vth.value()));
  put_field(out, "margin_v", fmt_double(margin.value()));
  return out;
}

MarginResponse MarginResponse::parse(std::string_view payload) {
  const auto doc = doc_of(payload, {"status", "crosses", "time_to_margin_s",
                                    "delta_vth_v", "margin_v"});
  MarginResponse out;
  out.status = parse_status(doc["status"]);
  out.crosses = doc["crosses"].flag();
  out.time_to_margin = get_seconds(doc["time_to_margin_s"]);
  out.delta_vth = Volts{doc["delta_vth_v"].number()};
  out.margin = Volts{doc["margin_v"].number()};
  return out;
}

std::string MarginBatchRequest::encode() const {
  std::string out;
  put_field(out, "duty", fmt_double(duty));
  put_field(out, "vdd_v", fmt_double(vdd.value()));
  put_field(out, "temp_c", fmt_double(temp.value()));
  put_field(out, "horizon_s", fmt_double(horizon.value()));
  put_field(out, "devices", std::to_string(device_ids.size()));
  for (std::uint64_t id : device_ids) {
    put_field(out, "device", std::to_string(id));
  }
  return out;
}

MarginBatchRequest MarginBatchRequest::parse(std::string_view payload) {
  // Repeated `device` rows put this payload outside the keyed-document
  // grammar; the line cursor reads its lines in writer order.
  util::LineCursor cursor(payload, payload_error);
  MarginBatchRequest out;
  out.duty = cursor.keyed("duty").number_in(0.0, 1.0);
  out.vdd = Volts{cursor.keyed("vdd_v").number_in(-5.0, 5.0)};
  out.temp = Celsius{cursor.keyed("temp_c").number_in(-273.15, 300.0)};
  out.horizon = get_seconds(cursor.keyed("horizon_s"));
  const std::uint64_t rows = cursor.keyed("devices").u64();
  if (rows > kMaxMarginBatchDevices) {
    throw ProtocolError("hostile device row count " + std::to_string(rows));
  }
  out.device_ids.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    out.device_ids.push_back(cursor.keyed("device").u64());
  }
  cursor.expect_done();
  return out;
}

std::string MarginBatchResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "margin_v", fmt_double(margin.value()));
  put_field(out, "rows", std::to_string(rows.size()));
  for (const MarginBatchRow& r : rows) {
    put_field(out, "row",
              std::to_string(r.device_id) + ' ' + (r.crosses ? "1" : "0") +
                  ' ' + fmt_double(r.time_to_margin.value()) + ' ' +
                  fmt_double(r.delta_vth.value()));
  }
  return out;
}

MarginBatchResponse MarginBatchResponse::parse(std::string_view payload) {
  util::LineCursor cursor(payload, payload_error);
  MarginBatchResponse out;
  out.status = parse_status(cursor.keyed("status"));
  out.margin = Volts{cursor.keyed("margin_v").number()};
  const std::uint64_t rows = cursor.keyed("rows").u64();
  if (rows > kMaxMarginBatchDevices) {
    throw ProtocolError("hostile margin row count " + std::to_string(rows));
  }
  out.rows.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    util::Tokens row(cursor.keyed("row").text(), payload_error);
    MarginBatchRow r;
    r.device_id = row.next("device").u64();
    r.crosses = row.next("crosses").flag();
    r.time_to_margin = get_seconds(row.next("time_to_margin_s"));
    r.delta_vth = Volts{row.next("delta_vth_v").number()};
    row.expect_end("row");
    out.rows.push_back(r);
  }
  cursor.expect_done();
  return out;
}

std::string RejuvenationRequest::encode() const {
  std::string out;
  put_field(out, "epoch_s", fmt_double(epoch.value()));
  return out;
}

RejuvenationRequest RejuvenationRequest::parse(std::string_view payload) {
  RejuvenationRequest out;
  out.epoch = get_seconds(doc_of(payload, {"epoch_s"})["epoch_s"]);
  return out;
}

std::string RejuvenationResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "any", any ? "1" : "0");
  put_field(out, "shard", std::to_string(shard_id));
  put_field(out, "degradation", fmt_double(degradation));
  return out;
}

RejuvenationResponse RejuvenationResponse::parse(std::string_view payload) {
  const auto doc =
      doc_of(payload, {"status", "any", "shard", "degradation"});
  RejuvenationResponse out;
  out.status = parse_status(doc["status"]);
  out.any = doc["any"].flag();
  out.shard_id = doc["shard"].integer(-1, 1 << 20);
  out.degradation = doc["degradation"].number();
  return out;
}

std::string ScheduleSleepRequest::encode() const {
  std::string out;
  put_field(out, "client", std::to_string(client_id));
  put_field(out, "device", std::to_string(device_id));
  put_field(out, "start_s", fmt_double(start.value()));
  put_field(out, "duration_s", fmt_double(duration.value()));
  return out;
}

ScheduleSleepRequest ScheduleSleepRequest::parse(std::string_view payload) {
  const auto doc =
      doc_of(payload, {"client", "device", "start_s", "duration_s"});
  ScheduleSleepRequest out;
  out.client_id = doc["client"].u64();
  out.device_id = doc["device"].u64();
  out.start = get_seconds(doc["start_s"]);
  out.duration = get_seconds(doc["duration_s"]);
  return out;
}

std::string ScheduleSleepResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "newly_applied", newly_applied ? "1" : "0");
  put_field(out, "windows", std::to_string(windows));
  return out;
}

ScheduleSleepResponse ScheduleSleepResponse::parse(std::string_view payload) {
  const auto doc = doc_of(payload, {"status", "newly_applied", "windows"});
  ScheduleSleepResponse out;
  out.status = parse_status(doc["status"]);
  out.newly_applied = doc["newly_applied"].flag();
  out.windows = doc["windows"].u64();
  return out;
}

std::string StatusRequest::encode() const { return {}; }

StatusRequest StatusRequest::parse(std::string_view payload) {
  (void)doc_of(payload, {});
  return {};
}

std::string StatusResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "devices", std::to_string(devices));
  put_field(out, "windows", std::to_string(windows));
  put_field(out, "sequence", std::to_string(sequence));
  put_field(out, "draining", draining ? "1" : "0");
  return out;
}

StatusResponse StatusResponse::parse(std::string_view payload) {
  const auto doc = doc_of(
      payload, {"status", "devices", "windows", "sequence", "draining"});
  StatusResponse out;
  out.status = parse_status(doc["status"]);
  out.devices = doc["devices"].u64();
  out.windows = doc["windows"].u64();
  out.sequence = doc["sequence"].u64();
  out.draining = doc["draining"].flag();
  return out;
}

std::string ErrorResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  // The message may contain spaces; it is the whole rest of the line.
  put_field(out, "message", message.empty() ? "-" : message);
  return out;
}

ErrorResponse ErrorResponse::parse(std::string_view payload) {
  const auto doc = doc_of(payload, {"status", "message"});
  ErrorResponse out;
  out.status = parse_status(doc["status"]);
  out.message = doc["message"].text();
  return out;
}

// --- Volatile scrape channel ----------------------------------------------

std::string MetricsRequest::encode() const {
  std::string out;
  // Metric names never contain '-', so "-" safely encodes "no filter".
  put_field(out, "prefix", prefix.empty() ? "-" : prefix);
  return out;
}

MetricsRequest MetricsRequest::parse(std::string_view payload) {
  MetricsRequest out;
  out.prefix = doc_of(payload, {"prefix"})["prefix"].text();
  if (out.prefix == "-") out.prefix.clear();
  return out;
}

std::string MetricsResponse::encode() const {
  std::string out;
  put_field(out, "status", to_string(status));
  put_field(out, "bytes", std::to_string(text.size()));
  out += text;
  return out;
}

MetricsResponse MetricsResponse::parse(std::string_view payload) {
  // A raw `key=value` text block follows its length, outside the
  // keyed-document grammar.
  util::LineCursor cursor(payload, payload_error);
  MetricsResponse out;
  out.status = parse_status(cursor.keyed("status"));
  out.text = std::string(cursor.take(cursor.keyed("bytes").u64()));
  cursor.expect_done();
  return out;
}

}  // namespace ash::fleet
