#pragma once

/// \file service.h
/// The resident fleet aging service behind `ash_fleetd` (ROADMAP item 1).
///
/// `Service` keeps the fleet substrate resident and answers concurrent
/// queries over a Unix-domain socket speaking the CRC-framed protocol of
/// ash/fleet/protocol.h:
///
///   * **margin**: "given this duty cycle, when does device X cross its
///     margin?" — the device's durable odometer estimate projected forward
///     with `mc::margin_outlook` (the paper's closed-form BTI law);
///   * **rejuvenation**: "which shard needs rejuvenation next epoch?" —
///     shards ranked by the fractional frequency degradation of their
///     newest *valid* durable campaign snapshot (`CheckpointStore`);
///   * **schedule-sleep**: the one mutation — book a recovery-sleep window
///     for a device, crash-consistently (see below);
///   * **status / ping**: deterministic state summary and liveness.
///
/// Robustness contract, pinned under `ctest -L faults`:
///
///   * every byte off the wire is adversarial — framing violations poison
///     the connection and it is dropped, exactly as `CheckpointStore`
///     refuses a torn snapshot;
///   * per-connection I/O deadlines evict slow-loris clients that park a
///     half-sent frame or never drain their responses;
///   * the per-tick request queue is bounded: requests beyond
///     `max_request_queue` are shed with `Status::kOverloaded` instead of
///     growing memory — explicit backpressure, never silent latency;
///   * mutations are **write-ahead**: each newly applied mutation is
///     appended to the state journal as one CRC-framed record and
///     `fdatasync`'d *before* the acknowledgement is queued, so a daemon
///     SIGKILLed between apply and ack replays the original
///     acknowledgement bytes when the client retries — a retrying client
///     can never double-book a window.  That `fdatasync` is the only
///     durable write between a mutation's decode and its ack: the flight
///     ring is dumped after the tick's acks are sent, with no fsync;
///   * SIGTERM drains gracefully: stop accepting, answer what is queued,
///     flush outboxes, persist a final snapshot, exit;
///   * restart loads the newest valid snapshot and replays the journal's
///     valid prefix past it, so post-restart answers are consistent with
///     the last acknowledged state.
///
/// On disk (`state_dir`): sparse snapshots `shard-00000.seq-<n>.ckpt` and
/// journals `shard-00000.seq-<base>.wal` holding the records after the
/// snapshot at `base`.  A snapshot is written at genesis, at drain, and
/// whenever the journal's bytes outgrow the last snapshot's (and one 4 KiB
/// block, so a tiny state is not rewritten every other mutation); each one
/// rotates to a fresh journal, so a mutation costs one small append and
/// compaction is O(windows), amortized O(1) per mutation.
///
/// Operational tallies are published as `fleet.service.*` metrics through
/// `ash::obs`; they are deliberately kept out of response payloads so a
/// chaos-ridden run and an undisturbed run answer with identical bytes.

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/obs/flight_recorder.h"
#include "ash/util/random.h"
#include "ash/util/units.h"

namespace ash::obs {
class Registry;
class Histogram;
}  // namespace ash::obs

namespace ash::fleet {

/// Most devices one service tracks: 2^22, a 128 MiB device table.  A
/// `ServiceConfig::devices` above it is refused at construction, and a
/// state snapshot claiming more is refused before genesis allocates it — a
/// CRC-valid snapshot proves its bytes were written, not that they are
/// sane.
inline constexpr std::uint64_t kMaxServiceDevices = std::uint64_t{1} << 22;

/// Service tunables.  Timings are host-time milliseconds — serving real
/// sockets is the one fleet layer that legitimately lives on the wall
/// clock; nothing here feeds back into the simulated physics.
struct ServiceConfig {
  /// Unix-domain socket path the daemon binds (re-created on startup).
  std::string socket_path;
  /// Directory for durable service-state snapshots (must exist, writable).
  std::string state_dir;
  /// Directory of fleet campaign snapshots the rejuvenation query ranks
  /// (typically FleetConfig::checkpoint_dir); empty disables the scan.
  std::string campaign_dir;
  /// Shard ids 0..shard_count-1 are scanned in `campaign_dir`.
  int shard_count = 0;
  /// Devices tracked (ids 0..devices-1), 1..kMaxServiceDevices.
  std::uint64_t devices = 64;
  /// Per-device aging budget (match mc::ReliabilityConfig).
  Volts margin{12e-3};
  /// Seed of the per-device aging priors (genesis state).
  std::uint64_t seed = default_seed(SeedStream::kFleetService);
  /// Closed-form physics of the margin projection.
  bti::ClosedFormParameters physics;

  /// Connection cap; clients beyond it are turned away at accept.
  int max_connections = 64;
  /// Requests admitted per tick; the rest are shed with kOverloaded.
  int max_request_queue = 8;
  /// Per-connection I/O deadline: a connection with a half-read frame or
  /// an undrained outbox idle this long is evicted (slow-loris defense).
  int io_timeout_ms = 2000;
  /// Poll tick; also bounds SIGTERM reaction latency.
  int poll_interval_ms = 20;
  /// When nonempty, the drain path writes the metrics snapshot here.
  std::string metrics_path;

  /// Request-path instrumentation switch: per-verb latency and queue-wait
  /// histograms.  Off, the request path performs no clock reads at all
  /// (null histogram pointers; see obs::ScopedTimer).
  bool instrument = true;
  /// When nonempty, the flight recorder persists here: at startup, after
  /// each poll tick's acks are sent when the tick recorded an event (reads
  /// record none, so read-only traffic writes nothing), at drain, and
  /// best-effort from the fatal-signal handler.  A dump is a temp file
  /// renamed into place with no fsync: it survives a kill of the daemon,
  /// not a power cut, and never sits between a request and its ack.
  std::string flight_recorder_path;
  /// Ring capacity; 0 disables the recorder (record() = one branch).
  std::size_t flight_recorder_capacity = 256;
};

/// One booked recovery-sleep window.
struct SleepWindow {
  Seconds start{0.0};
  Seconds duration{0.0};
};

/// Durable per-device state.
struct DeviceAging {
  /// Odometer-style estimate of the device's current DeltaVth.
  Volts delta_vth{0.0};
  std::vector<SleepWindow> windows;
};

/// One applied mutation, remembered for idempotent replay: a retry of the
/// same (client, request) gets `windows_after` re-encoded into the exact
/// acknowledgement bytes the first delivery produced.
struct AppliedMutation {
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t windows_after = 0;
};

/// One schedule-sleep mutation, as a journal record stores it.
struct SleepMutation {
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t device_id = 0;
  SleepWindow window;

  /// One text line: client, request, device, start, duration (doubles in
  /// their shortest round-trip form, `ash::fmt_double`).
  std::string encode() const;
  /// Throws std::runtime_error on anything encode() cannot produce.
  static SleepMutation parse(std::string_view bytes);
};

/// The service's durable state: a pure function of (genesis config, the
/// sequence of applied mutations), and stored as exactly that — a sparse
/// snapshot (genesis config, non-empty windows, idempotency table) plus a
/// journal of the mutations applied after it, both CheckpointStore frames
/// with newest-valid recovery.
struct ServiceState {
  std::uint64_t sequence = 0;  ///< mutations applied since genesis
  Volts margin{12e-3};
  std::uint64_t seed = 0;  ///< genesis seed of the device priors
  std::vector<DeviceAging> devices;
  std::vector<AppliedMutation> applied;

  /// Fresh state: per-device aging priors drawn from `seed` (device i's
  /// DeltaVth uniform in [0, 0.9 * margin] on stream derive_seed(seed, i)).
  static ServiceState genesis(std::uint64_t device_count, Volts margin,
                              std::uint64_t seed);

  /// The `ash-fleet-service v3` document: device count, margin and seed
  /// (priors are rebuilt through genesis), the non-empty windows and the
  /// idempotency table.
  std::string serialize() const;
  /// Throws std::runtime_error naming the failing field on malformed
  /// input — any other version, a duplicated header field, a window or
  /// applied line before `devices`, a missing field, a number that is not
  /// `ash::parse_double`'s, more than kMaxServiceDevices devices — and
  /// never yields a partially-filled state.
  static ServiceState deserialize(std::string_view bytes);

  /// Book the mutation's window, advance the sequence and remember the
  /// acknowledgement; returns the device's window count after.  The
  /// device must be tracked.
  std::uint64_t apply(const SleepMutation& mutation);

  const AppliedMutation* find_applied(std::uint64_t client_id,
                                      std::uint64_t request_id) const;
  std::uint64_t total_windows() const;
};

/// Host-time operational tallies; everything here is timing- and
/// chaos-dependent, which is exactly why none of it appears in response
/// payloads.
struct ServiceStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over max_connections
  std::uint64_t evictions = 0;             ///< I/O deadline expiries
  std::uint64_t frame_errors = 0;          ///< poisoned readers dropped
  std::uint64_t requests = 0;              ///< admitted to the queue
  std::uint64_t shed = 0;                  ///< load-shed with kOverloaded
  std::uint64_t responses = 0;
  std::uint64_t mutations = 0;             ///< newly applied
  std::uint64_t replays = 0;               ///< idempotent re-acks
  std::uint64_t snapshots_saved = 0;
  std::uint64_t flight_dumps = 0;          ///< flight-ring files written
  // Poll-loop liveness, published under `fleet.service.health.`.
  std::uint64_t poll_iterations = 0;
  std::uint64_t connections = 0;  ///< open, counted after each accept pass
  std::uint64_t connections_high_water = 0;
  std::uint64_t queue_depth_high_water = 0;

  /// Set one `fleet.service.`-named counter per field (same integers as
  /// the struct, so report and metrics can never disagree).
  void publish(obs::Registry& registry) const;
};

/// The resident daemon.  Single-threaded poll loop; concurrency comes
/// from multiplexing connections, not threads (fork-safe, like the
/// supervisor it fronts).
class Service {
 public:
  /// Loads the newest valid state snapshot from `state_dir` (genesis when
  /// none verifies), replays the journal's valid prefix past it and cuts
  /// any torn tail before the first new append.  Throws
  /// std::runtime_error on an unusable state_dir or socket path,
  /// std::invalid_argument on nonsensical tunables.
  explicit Service(ServiceConfig config);

  /// Compute the response to one verified request frame, durably applying
  /// any mutation (write-ahead) before the acknowledgement is returned.
  /// Never throws on hostile payloads — they earn an ErrorResponse.
  /// Exposed for in-process tests; run() calls it per admitted request.
  Frame respond(const Frame& request);

  /// One tick's bounded-queue admission: the first `max_request_queue`
  /// requests are answered via respond(), the rest shed with a
  /// kOverloaded ErrorResponse.  Returns responses 1:1 with requests.
  std::vector<Frame> process_tick(const std::vector<Frame>& requests);

  /// Bind the socket and serve until SIGTERM/SIGINT, then drain: stop
  /// accepting, flush, persist a final snapshot, publish metrics, return.
  void run();

  const ServiceConfig& config() const { return config_; }
  const ServiceState& state() const { return state_; }
  const ServiceStats& stats() const { return stats_; }
  bool draining() const { return draining_; }

  /// Mutations applied but not yet durable in the journal or a snapshot
  /// (0 at rest: every record is fdatasync'd before its ack).
  std::uint64_t snapshot_lag() const {
    return state_.sequence - durable_sequence_;
  }

  const obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// Mirror every volatile tally (service stats, protocol tallies,
  /// snapshot lag, draining) into `registry` — what the metrics scrape and
  /// the drain-time metrics dump both call, so they can never disagree.
  void publish_volatile(obs::Registry& registry) const;

 private:
  Frame respond_margin(const Frame& request);
  Frame respond_margin_batch(const Frame& request);
  Frame respond_rejuvenation(const Frame& request);
  Frame respond_schedule_sleep(const Frame& request);
  Frame respond_status(const Frame& request);
  Frame respond_metrics(const Frame& request);
  /// Write-ahead half of a mutation: fdatasync its journal record, then
  /// compact when the journal has outgrown the last snapshot.
  void journal_mutation(const SleepMutation& mutation);
  /// Snapshot the state and rotate to a fresh journal based at its
  /// sequence.  The journal it retires is kept one more round, so an
  /// older snapshot can still be rolled forward should this one not
  /// verify; older journals are deleted.
  void save_snapshot();
  /// Best-effort dump of the flight recorder via util::replace_file
  /// (no-op when unconfigured; failures are swallowed — telemetry must
  /// never take the daemon down).  No fsync: the dump survives a kill,
  /// not a power cut.  Never called between a request's decode and its
  /// ack.
  void persist_flight();
  /// Latency histogram for a request type (nullptr when uninstrumented).
  obs::Histogram* latency_histogram(MessageType type) const;

  ServiceConfig config_;
  CheckpointStore state_store_;
  bti::ClosedFormModel model_;
  ServiceState state_;
  ServiceStats stats_;
  obs::FlightRecorder recorder_;
  /// recorder_.recorded() at the last dump: the ring is rewritten only
  /// when an event has been recorded since.
  std::uint64_t flight_dumped_at_ = 0;
  std::unique_ptr<Journal> journal_;
  std::uint64_t durable_sequence_ = 0;
  /// Framed size of the newest snapshot: the compaction threshold.
  std::uint64_t snapshot_bytes_ = 0;
  /// Registered once at construction, indexed by the raw request type;
  /// the request path only ever dereferences (lock-free).
  std::array<obs::Histogram*, 21> latency_{};
  obs::Histogram* queue_wait_ = nullptr;
  bool draining_ = false;
};

/// A `Service` run in a forked child: started, SIGKILLed and restarted
/// over the same state dir, or drained with SIGTERM.  The harness behind
/// `ash_fleetd drill`, `bench_fleet_service` and the forked-daemon test
/// suites.  Destruction SIGKILLs and reaps a child still running.
class ForkedDaemon {
 public:
  explicit ForkedDaemon(ServiceConfig config) : config_(std::move(config)) {}
  ~ForkedDaemon() { kill(); }
  ForkedDaemon(const ForkedDaemon&) = delete;
  ForkedDaemon& operator=(const ForkedDaemon&) = delete;

  /// Fork a child that serves until drained, then exits 0 (3 when the
  /// service throws).  Throws std::runtime_error when fork fails.
  void start();
  /// SIGKILL and reap the child; no-op when none is running.
  void kill();
  /// kill(), then start() over the same state dir: the chaos hook.
  void kill_and_restart();
  /// SIGTERM and reap.  Returns the child's exit status (0 = clean
  /// drain), 128 + signal when a signal ended it, -1 when none was running.
  int terminate();

 private:
  ServiceConfig config_;
  pid_t pid_ = -1;
};

}  // namespace ash::fleet
