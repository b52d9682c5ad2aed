#pragma once

/// \file flight_recorder.h
/// Crash-safe flight recorder: a fixed-size lock-free ring of structured
/// events that survives the death of its process.
///
/// Metrics answer "how much"; traces answer "where did the time go"; the
/// flight recorder answers the post-mortem question — *what was the daemon
/// doing right before it died?*  A SIGKILLed or wedged `ash_fleetd` leaves
/// no stack trace and no drain-time metrics dump, so the recorder keeps
/// the last `capacity` structured events (state transitions, evictions,
/// shed requests, framing rejections, snapshot writes) in a ring the
/// daemon dumps via `util::replace_file` (temp file + rename, no fsync)
/// after each poll tick's acks are sent, only when the tick recorded an
/// event.  The dump survives a kill, not a power cut; after a kill, the
/// newest dump on disk explains the run.
///
/// Cost model, mirroring obs::ScopedTimer: a recorder constructed with
/// capacity 0 is *disabled* — `record()` is one branch, no clock read, no
/// store (enforced by tests/obs/overhead_test.cpp).  An enabled record()
/// is a relaxed fetch_add to claim a slot plus plain stores — lock-free
/// and signal-safe, so a fatal-signal handler may both record and dump.
///
/// The serialized form is a line-oriented text document.  `load()`
/// tolerates torn dumps the way `CheckpointStore` tolerates torn
/// snapshots: a valid prefix parses, the torn tail is dropped — a
/// best-effort dump written from a crashing process is still evidence.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ash::obs {

/// Event vocabulary of the fleet daemon's flight recorder.  Keep
/// `to_string` / `parse_flight_event` in sync when extending.
enum class FlightEventKind : std::uint32_t {
  kDaemonStart = 0,      ///< service constructed (a = resumed sequence)
  kStateGenesis,         ///< no snapshot verified; fresh genesis state
  kStateLoaded,          ///< resumed from a durable snapshot (a = sequence)
  kSnapshotSaved,        ///< durable state written (a = sequence, b = bytes)
  kConnectionAccepted,   ///< a = live connection count after accept
  kConnectionRejected,   ///< over the connection cap
  kEviction,             ///< slow-loris I/O deadline expiry
  kFrameError,           ///< framing violation poisoned a connection
  kRequestShed,          ///< bounded queue overflow (a = request id)
  kMutationApplied,      ///< schedule-sleep applied (a = device, b = seq)
  kMutationReplayed,     ///< idempotent re-ack (a = client, b = request id)
  kDrainBegin,           ///< SIGTERM/SIGINT received, drain started
  kDrainEnd,             ///< drain finished; final snapshot durable
  kFatalSignal,          ///< fatal signal handler fired (a = signal number)
  kCount,                // sentinel
};

const char* to_string(FlightEventKind kind);
/// Parse a to_string name back; returns kCount for unknown names.
FlightEventKind parse_flight_event(std::string_view name);

/// One recorded event.  `t_ms` is milliseconds since the recorder was
/// constructed (host time: the recorder exists to explain real crashes).
struct FlightRecord {
  std::uint64_t seq = 0;  ///< 1-based global event number (never wraps)
  double t_ms = 0.0;
  FlightEventKind kind = FlightEventKind::kDaemonStart;
  std::uint64_t a = 0;  ///< event-specific detail (see FlightEventKind)
  std::uint64_t b = 0;
};

/// Fixed-capacity lock-free event ring.  Thread-safe for concurrent
/// record(); events() tolerates in-flight writers by re-checking each
/// slot's sequence stamp around the copy.
class FlightRecorder {
 public:
  /// capacity 0 disables the recorder entirely (record() = one branch).
  explicit FlightRecorder(std::size_t capacity = 0);

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }

  void record(FlightEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Total events ever recorded (>= events().size(); old ones wrapped).
  std::uint64_t recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// The retained events, oldest first.
  std::vector<FlightRecord> events() const;

  /// Line-oriented text dump of the current ring.
  std::string serialize() const;

  /// Async-signal-safe dump to an open file descriptor (fatal-signal
  /// path): byte-identical to serialize(), built with stack buffers and
  /// ::write only.  Returns false when a write fails.
  bool write_fd(int fd) const;

  /// Parse a dump.  Torn tails are tolerated: events parse until the
  /// first malformed/truncated line and the rest is dropped.  Throws
  /// std::runtime_error only when `bytes` does not start with a flight
  /// recorder header.
  static std::vector<FlightRecord> load(std::string_view bytes);

  /// Human-readable table of a loaded (or live) event list.
  static std::string render(const std::vector<FlightRecord>& events);

 private:
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 0 = empty; else the seq
    double t_ms = 0.0;
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };

  double elapsed_ms() const;

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::uint64_t epoch_ns_ = 0;
};

}  // namespace ash::obs
