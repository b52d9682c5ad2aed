#pragma once

/// \file client.h
/// Retrying client for the fleet aging service.
///
/// `Client` speaks the ash/fleet/protocol.h frame format to an
/// `ash_fleetd` socket and absorbs every transient failure the service's
/// threat model allows: refused/reset connections, mid-frame tears, I/O
/// timeouts, load-shed (kOverloaded) responses and daemon restarts.  Every
/// delivery attempt of a request reuses the *same* request id, so the
/// daemon's idempotency table guarantees a retried mutation is applied
/// exactly once.  Reconnects back off exponentially with a cap, mirroring
/// the supervisor's restart backoff.
///
/// The client records a **transcript**: the canonical request and response
/// frame bytes of every *completed* call, in call order — retries, drops
/// and shed responses never appear.  Because the daemon's answers are a
/// pure function of its durable state, a chaos-ridden session's transcript
/// is byte-identical to an undisturbed one; `ctest -L faults` and the
/// `ash_fleetd drill` CI job pin exactly that.
///
/// Chaos enactment is client-side (the protocol channels of
/// `FleetFaultPlan`): the client faithfully sabotages its own deliveries —
/// dropped connections, torn frames, stalled writes — and invokes the
/// harness-owned `kill_daemon` hook, so the daemon under test experiences
/// real broken sockets, exactly as workers self-sabotage under
/// `FleetFaultAgent`.

#include <cstdint>
#include <functional>
#include <string>

#include "ash/fleet/fault.h"
#include "ash/fleet/protocol.h"

namespace ash::obs {
class Histogram;
}  // namespace ash::obs

namespace ash::fleet {

/// Client tunables (host-time milliseconds).
struct ClientConfig {
  std::string socket_path;
  /// Idempotency namespace: (client_id, request id) keys mutations.
  std::uint64_t client_id = 1;
  /// Delivery attempts per call before giving up.
  int max_attempts = 12;
  /// Capped exponential backoff between attempts.
  int backoff_initial_ms = 2;
  double backoff_multiplier = 2.0;
  int backoff_max_ms = 100;
  /// Deadline for one response read (and one connect).
  int io_timeout_ms = 2000;
  /// Protocol chaos channels (proto_* fields); others are ignored.
  FleetFaultPlan chaos;
  /// Harness hook for proto_kill_every: SIGKILL the daemon and restart it
  /// from its newest snapshot, synchronously.  Unset = channel disabled.
  std::function<void()> kill_daemon;
  /// Round-trip latency histogram (`fleet.client.rtt_s`).  Off, the call
  /// path performs no clock reads for instrumentation.
  bool instrument = true;
};

/// Host-time client tallies (never part of the transcript).
struct ClientStats {
  std::uint64_t calls = 0;  ///< completed calls
  std::uint64_t attempts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t io_failures = 0;  ///< timeouts, EOFs, resets, frame errors
  std::uint64_t overloaded_retries = 0;
  std::uint64_t drops_injected = 0;
  std::uint64_t truncations_injected = 0;
  std::uint64_t stalls_injected = 0;
  std::uint64_t daemon_kills_injected = 0;
  double backoff_total_ms = 0.0;

  std::string render() const;
};

/// Scrape request ids carry the top bit so they can never collide with
/// the sequential ids of transcripted calls in the daemon's idempotency
/// table, and never shift them.
inline constexpr std::uint64_t kScrapeIdBase = std::uint64_t{1} << 63;

/// One connection's worth of client.  Not thread-safe; one per caller.
class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request payload and return the verified response frame,
  /// retrying (same request id) through every transient failure.  Throws
  /// std::runtime_error when max_attempts deliveries all fail.
  Frame call(MessageType type, const std::string& payload);

  /// Typed conveniences.  They throw std::runtime_error when the daemon
  /// answers with a terminal ErrorResponse (bad request/unknown device);
  /// use call() to observe those responses directly.
  bool ping();
  MarginResponse margin(const MarginRequest& request);
  /// Whole-shard margin query; rows are bit-identical to per-device
  /// margin() calls under the same schedule.
  MarginBatchResponse margin_batch(const MarginBatchRequest& request);
  RejuvenationResponse rejuvenation(const RejuvenationRequest& request);
  /// Stamps the request with this client's id before sending.
  ScheduleSleepResponse schedule_sleep(ScheduleSleepRequest request);
  StatusResponse status();

  /// The metrics scrape, on the volatile channel (see scrape()); throws on
  /// a terminal error answer.
  MetricsResponse metrics(const std::string& prefix = "");

  /// Canonical (request, response) frame bytes of every completed call.
  const std::string& transcript() const { return transcript_; }
  const ClientStats& stats() const { return stats_; }

 private:
  /// Send one request on the volatile scrape channel and return the
  /// verified response.  Same retry/backoff machinery as call(), but no
  /// chaos injection, no chaos stream index consumed, the frames never
  /// enter the transcript, and the request id comes from a separate
  /// (high-bit-tagged) counter — a mid-session scrape cannot perturb the
  /// transcript-identity gate by construction, no matter how the two
  /// drill sessions interleave their scrapes.
  Frame scrape(MessageType type, const std::string& payload);
  bool ensure_connected();
  void disconnect();
  bool send_all(std::string_view bytes);
  bool read_frame(Frame& out, std::uint64_t expect_request_id);
  void backoff(int attempt);

  ClientConfig config_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  /// Scrape ids live in their own tagged space so watching a session never
  /// shifts the ids (hence the bytes) of its transcripted calls.
  std::uint64_t next_scrape_id_ = kScrapeIdBase;
  int request_index_ = 0;  ///< chaos stream index, one per call()
  std::string transcript_;
  ClientStats stats_;
  obs::Histogram* rtt_hist_ = nullptr;  ///< null when uninstrumented
};

}  // namespace ash::fleet
