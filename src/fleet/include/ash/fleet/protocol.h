#pragma once

/// \file protocol.h
/// Wire protocol of the fleet aging service.
///
/// `ash_fleetd` answers queries over a Unix-domain socket; every byte that
/// arrives on that socket is treated as adversarial (the wearout-attack
/// literature's threat model, applied to the manager itself).  Messages
/// travel in binary frames that reuse the PR 6 snapshot discipline —
/// magic, version, declared length, payload CRC, header self-CRC:
///
///   offset  size  field
///        0     8  magic "ASHFLTQ1"
///        8     4  format version (1, little-endian u32)
///       12     4  message type (u32, MessageType)
///       16     8  request id (u64; echoed verbatim in the response)
///       24     8  payload size in bytes (u64, <= max_payload)
///       32     4  CRC-32 of the payload
///       36     4  CRC-32 of bytes 0..35 (header self-check)
///       40     …  payload (text document, kMaxFramePayload cap)
///
/// `FrameReader` decodes a raw byte stream incrementally and rejects
/// hostile input at the earliest offset that proves it invalid: a magic
/// mismatch is rejected at its first wrong byte, an oversized declared
/// length before any payload is buffered, a tampered header at byte 40, a
/// truncated or bit-flipped payload when its CRC fails.  A framing error
/// is not recoverable — the server drops the connection, exactly as
/// `CheckpointStore` refuses a torn snapshot.
///
/// Payloads are line-oriented `key value` text documents (the repo's
/// checkpoint idiom: diffable, 8-bit-clean inside the CRC envelope).
/// Doubles travel in their shortest round-trip text and are parsed back
/// strictly (`ash::fmt_double` / `ash::parse_double`, util/double_codec.h),
/// so every value round-trips bit-exactly — what makes retried-transcript
/// == undisturbed-transcript a *byte* comparison.  Quantities cross the
/// wire as strong units (ash::Seconds, ash::Volts, ash::Celsius): the
/// struct field types are the wire schema.

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ash/util/units.h"

namespace ash::obs {
class Registry;
}  // namespace ash::obs

namespace ash::fleet {

/// Protocol version written by this build.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on a frame payload.  A header declaring more is rejected
/// before any payload byte is buffered — a 16-exabyte declared length must
/// cost the daemon 40 bytes of memory, not an allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1u << 20;

/// Size of the fixed frame header.
inline constexpr std::size_t kFrameHeaderSize = 40;

/// The earliest check a hostile byte stream failed.  kNone marks payload
/// *document* errors (valid frame, bad fields) — those are per-request
/// kBadRequest responses, not framing rejections, and are not tallied.
enum class ProtocolViolation : std::uint32_t {
  kNone = 0,
  kBadMagic,         ///< first wrong magic byte
  kBadVersion,       ///< unsupported version at offset 8
  kHostileLength,    ///< declared payload beyond the cap, offset 24
  kHeaderCrc,        ///< header self-check failed at offset 36
  kPayloadCrc,       ///< payload CRC mismatch
  kUnknownType,      ///< CRC-valid frame with an unknown message type
  kTruncated,        ///< one-shot decode of an incomplete frame
  kTrailingGarbage,  ///< one-shot decode with bytes past the frame
  kCount,            // sentinel
};

const char* to_string(ProtocolViolation violation);

/// Thrown on any wire-format violation; the message names the failing
/// check and the byte offset where the input proved invalid, and
/// `violation()` classifies it for the `fleet.protocol.*` tallies.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what,
                         ProtocolViolation violation = ProtocolViolation::kNone)
      : std::runtime_error(what), violation_(violation) {}

  ProtocolViolation violation() const { return violation_; }

 private:
  ProtocolViolation violation_;
};

/// Process-global framing tallies: every frame the decoders verify and
/// every hostile rejection, counted at the single choke point where the
/// ProtocolError is constructed.  `publish()` mirrors them into an
/// `obs::Registry` as `fleet.protocol.*` metrics — the byte/bit-sweep test
/// pins that the metrics and its own rejection bookkeeping are the same
/// integers (the PR 3 report==metrics discipline, applied to framing).
class ProtocolTallies {
 public:
  void count_decoded() { decoded_.fetch_add(1, std::memory_order_relaxed); }
  void count(ProtocolViolation violation);

  std::uint64_t decoded() const {
    return decoded_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected(ProtocolViolation violation) const;
  std::uint64_t rejected_total() const;

  /// Write `<prefix>frames_decoded`, `<prefix>rejected.<class>` and
  /// `<prefix>rejected.total` counters into `registry`.
  void publish(obs::Registry& registry,
               std::string_view prefix = "fleet.protocol.") const;

  /// Zero everything (tests and multi-run tools).
  void reset();

 private:
  std::atomic<std::uint64_t> decoded_{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(ProtocolViolation::kCount)>
      rejected_{};
};

/// The process-wide tallies every decoder in this process counts into.
ProtocolTallies& protocol_tallies();

/// Message types.  Requests are odd, their responses even (request + 1).
/// 13/14 is the *volatile scrape channel*: its response carries
/// operational telemetry that chaos legitimately perturbs, so clients keep
/// it out of the replay/idempotency and transcript-identity machinery.
/// 12 (kept free for the odd/even pairing) and 15..18 (retired scrapes)
/// are unassigned, and `known_message_type` refuses them.  Types 19+
/// return to the deterministic query space — the margin batch is science
/// payload, transcript-comparable like its single-device sibling.
enum class MessageType : std::uint32_t {
  kPingRequest = 1,
  kPingResponse = 2,
  kMarginRequest = 3,
  kMarginResponse = 4,
  kRejuvenationRequest = 5,
  kRejuvenationResponse = 6,
  kScheduleSleepRequest = 7,
  kScheduleSleepResponse = 8,
  kStatusRequest = 9,
  kStatusResponse = 10,
  kErrorResponse = 11,
  kMetricsRequest = 13,
  kMetricsResponse = 14,
  kMarginBatchRequest = 19,
  kMarginBatchResponse = 20,
};

const char* to_string(MessageType type);
/// True when `raw` encodes a known MessageType.
bool known_message_type(std::uint32_t raw);

/// Response status.  kOverloaded is the backpressure signal: the request
/// was *not* processed and may be retried after a backoff.
enum class Status : std::uint32_t {
  kOk = 0,
  kOverloaded = 1,
  kBadRequest = 2,
  kUnknownDevice = 3,
  kShuttingDown = 4,
};

const char* to_string(Status status);

/// One decoded, CRC-verified frame.
struct Frame {
  MessageType type = MessageType::kErrorResponse;
  std::uint64_t request_id = 0;
  std::string payload;
};

/// Encode one frame (header + CRCs + payload).
std::string frame_message(MessageType type, std::uint64_t request_id,
                          std::string_view payload);

/// Verify and unwrap a complete frame held in one buffer.  Throws
/// ProtocolError on any violation (tests exercise every truncation
/// boundary and every header bit).
Frame decode_frame(std::string_view bytes,
                   std::uint64_t max_payload = kMaxFramePayload);

/// Incremental frame decoder over a byte stream.
///
/// feed() appends wire bytes; next() yields verified frames in order.
/// Either call throws ProtocolError as soon as the buffered prefix cannot
/// extend to a valid frame; after a throw the reader is poisoned and the
/// connection must be dropped (resynchronising inside a hostile byte
/// stream would mean trusting unverified bytes).
class FrameReader {
 public:
  explicit FrameReader(std::uint64_t max_payload = kMaxFramePayload);

  /// Append raw bytes.  Throws ProtocolError on provably-invalid input.
  void feed(std::string_view bytes);

  /// Next complete verified frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buffer_.size(); }
  bool poisoned() const { return poisoned_; }

 private:
  void check_prefix();  ///< earliest-offset rejection of the buffered bytes

  std::uint64_t max_payload_;
  std::string buffer_;
  bool poisoned_ = false;
};

// ---------------------------------------------------------------------------
// Request / response payloads.  Strong units are the wire schema; encode()
// prints canonical text, parse() validates every field and throws
// ProtocolError naming the offender.
// ---------------------------------------------------------------------------

/// Liveness probe.  Both payloads are empty by definition — the codec
/// structs exist so a probe carrying data is rejected at parse time like
/// any other malformed document, and so every wire verb (even the trivial
/// one) goes through the same encode()/parse() discipline.
struct PingRequest {
  std::string encode() const;
  static PingRequest parse(std::string_view payload);
};

struct PingResponse {
  std::string encode() const;
  static PingResponse parse(std::string_view payload);
};

/// "Given this duty cycle, when does device X cross its margin?"
struct MarginRequest {
  std::uint64_t device_id = 0;
  /// Queried mission schedule: switching activity duty cycle in [0, 1]...
  double duty = 0.5;
  /// ...at this supply and die temperature.
  Volts vdd{1.2};
  Celsius temp{80.0};
  /// Search horizon; the answer is right-censored here.
  Seconds horizon = units::hours(10.0 * 365.25 * 24.0);

  std::string encode() const;
  static MarginRequest parse(std::string_view payload);
};

struct MarginResponse {
  Status status = Status::kOk;
  bool crosses = false;
  /// Time until the device's projected DeltaVth crosses its margin
  /// (== horizon when !crosses).
  Seconds time_to_margin{0.0};
  /// The device's current (odometer-estimated) aging and its margin.
  Volts delta_vth{0.0};
  Volts margin{0.0};

  std::string encode() const;
  static MarginResponse parse(std::string_view payload);
};

/// Cap on devices per margin-batch request; a hostile count is rejected
/// before any row is buffered.
inline constexpr std::uint64_t kMaxMarginBatchDevices = 4096;

/// The whole-shard margin query: one mission schedule, many devices.  The
/// daemon answers through the batched mc::margin_outlook overload, which
/// builds the schedule's stress law and ceiling once for the whole request
/// — each row is still bit-identical to the corresponding single-device
/// kMarginRequest.
struct MarginBatchRequest {
  std::vector<std::uint64_t> device_ids;
  /// Queried mission schedule, shared by every device of the batch.
  double duty = 0.5;
  Volts vdd{1.2};
  Celsius temp{80.0};
  Seconds horizon = units::hours(10.0 * 365.25 * 24.0);

  std::string encode() const;
  static MarginBatchRequest parse(std::string_view payload);
};

/// One device's answer inside a MarginBatchResponse.
struct MarginBatchRow {
  std::uint64_t device_id = 0;
  bool crosses = false;
  Seconds time_to_margin{0.0};
  Volts delta_vth{0.0};
};

struct MarginBatchResponse {
  Status status = Status::kOk;
  /// The fleet-wide aging budget the rows were projected against.
  Volts margin{0.0};
  /// Answers in request order (one row per requested device).
  std::vector<MarginBatchRow> rows;

  std::string encode() const;
  static MarginBatchResponse parse(std::string_view payload);
};

/// "Which shard needs rejuvenation next epoch?" — ranked by the fractional
/// frequency degradation of each shard's newest durable campaign snapshot.
struct RejuvenationRequest {
  /// Length of the upcoming scheduling epoch (informational; echoed).
  Seconds epoch = units::hours(24.0);

  std::string encode() const;
  static RejuvenationRequest parse(std::string_view payload);
};

struct RejuvenationResponse {
  Status status = Status::kOk;
  /// False when no shard has a valid snapshot to rank.
  bool any = false;
  int shard_id = -1;
  /// Winner's fractional frequency degradation (0..1).
  double degradation = 0.0;

  std::string encode() const;
  static RejuvenationResponse parse(std::string_view payload);
};

/// Scheduling mutation: book a recovery-sleep window for a device.
/// (client_id, request id) is the idempotency key — a retrying client can
/// never double-book the window.
struct ScheduleSleepRequest {
  std::uint64_t client_id = 0;
  std::uint64_t device_id = 0;
  /// Window start, relative to the service's scheduling epoch.
  Seconds start{0.0};
  Seconds duration = units::hours(6.0);

  std::string encode() const;
  static ScheduleSleepRequest parse(std::string_view payload);
};

struct ScheduleSleepResponse {
  Status status = Status::kOk;
  /// Always true on the wire: a replayed (client, request) rebuilds the
  /// original acknowledgement byte-for-byte, so a client that retried a
  /// torn send cannot distinguish its transcript from an undisturbed run.
  bool newly_applied = false;
  /// Device's window count after the mutation.
  std::uint64_t windows = 0;

  std::string encode() const;
  static ScheduleSleepResponse parse(std::string_view payload);
};

struct StatusRequest {
  std::string encode() const;
  static StatusRequest parse(std::string_view payload);
};

/// Deterministic service state summary.  Volatile operational tallies
/// (requests served, evictions) are deliberately absent — they live in the
/// `fleet.service.*` metrics, so chaos cannot perturb response bytes.
struct StatusResponse {
  Status status = Status::kOk;
  std::uint64_t devices = 0;
  std::uint64_t windows = 0;
  /// Durable state sequence (mutations applied since genesis).
  std::uint64_t sequence = 0;
  bool draining = false;

  std::string encode() const;
  static StatusResponse parse(std::string_view payload);
};

/// Error / load-shed response, usable for any request type.
struct ErrorResponse {
  Status status = Status::kBadRequest;
  std::string message;

  std::string encode() const;
  static ErrorResponse parse(std::string_view payload);
};

// ---------------------------------------------------------------------------
// Volatile scrape channel (kMetrics).  These payloads are operational
// telemetry — chaos legitimately changes them, so they are served fresh on
// every call (no replay) and never enter transcripts.
// ---------------------------------------------------------------------------

/// "Send me your live metrics snapshot", optionally filtered by prefix.
struct MetricsRequest {
  /// Keep only metrics whose name starts with this ("" = everything).
  std::string prefix;

  std::string encode() const;
  static MetricsRequest parse(std::string_view payload);
};

/// The snapshot, rendered by `MetricsSnapshot::render()` (`key=value`
/// lines).  The text block is length-prefixed on the wire because metric
/// lines use `=` rather than the strict `key value` document grammar.
struct MetricsResponse {
  Status status = Status::kOk;
  std::string text;

  std::string encode() const;
  static MetricsResponse parse(std::string_view payload);
};

}  // namespace ash::fleet
