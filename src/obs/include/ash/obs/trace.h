#pragma once

/// \file trace.h
/// Cross-layer tracing for the virtual lab: typed events and RAII spans.
///
/// The paper's whole argument is made by *watching* degradation and
/// recovery unfold over time; the fault-injection and reliability layers
/// (PR 1/PR 2) additionally make dozens of hidden decisions per campaign.
/// This layer makes all of it visible: every phase, measurement, injected
/// fault, retry, quarantine and checkpoint rewind can be recorded as a
/// `TraceEvent` carrying both the *simulated* campaign clock and the host
/// wall clock, and exported as Chrome trace-event JSON (loadable in
/// Perfetto / `chrome://tracing`) or as JSONL for ad-hoc analysis.
///
/// Cost model: a process-global sink pointer (null by default) gates every
/// emission.  With no sink attached the instrumentation is a relaxed
/// atomic load and a predictable branch — hot paths guard string
/// construction behind `if (ash::obs::tracing())`, so idle tracing is
/// near-zero cost (enforced by tests/obs/overhead_test.cpp).
///
/// Time model: trace timestamps live on the *simulated* campaign clock
/// (that is the timeline the physics cares about); host wall time rides
/// along in every event for profiling the simulator itself.  Because the
/// emitting layers (fault injectors, schedulers, reliability manager) do
/// not own the campaign clock, the driving loop publishes it through a
/// thread-local via `set_sim_now()`, and emitters read it back with
/// `sim_now()`.

#include <atomic>
#include <cstdint>

#include "ash/util/units.h"
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ash::obs {

/// Typed event vocabulary.  Spans use kPhase/kRun; the rest are instants.
enum class EventKind {
  kRun = 0,             ///< one whole campaign / mission (span)
  kPhase,               ///< one Table 1 phase attempt (span)
  kPhaseTransition,     ///< campaign advanced to a new phase
  kMeasurement,         ///< one logged sample
  kFaultInjected,       ///< a fault plan event fired (truth or sensor)
  kFaultDetected,       ///< watchdog / manager recognised a fault
  kRetry,               ///< sample retry with simulated-time backoff
  kQuarantine,          ///< core pulled from service (heartbeat or margin)
  kQuarantineRelease,   ///< healed core returned to service
  kFailover,            ///< spare core woken to cover demand
  kCheckpointSave,      ///< campaign state saved at a phase boundary
  kCheckpointRewind,    ///< chip state rewound after a phase abort
  // Fleet-supervision vocabulary (process-level, emitted by ash::fleet).
  kHeartbeatMiss,       ///< worker missed its heartbeat deadline
  kWorkerRestart,       ///< crashed/hung shard worker restarted
  kBackoff,             ///< supervisor waited out a restart backoff
  kWorkerQuarantine,    ///< shard quarantined after repeated strikes
  // Fleet-daemon request path (emitted by fleet::Service / fleet::Client).
  kFleetAccept,         ///< daemon accepted a client connection
  kFleetRequest,        ///< one decoded request, accept→ack (span)
  kFleetApply,          ///< mutation applied to durable state
  kFleetSnapshot,       ///< write-ahead durable snapshot persisted
  kFleetAck,            ///< response frame queued for the client
};

const char* to_string(EventKind kind);

/// One recorded event.  For instants sim_end_s == sim_begin_s.
struct TraceEvent {
  EventKind kind = EventKind::kRun;
  std::string name;      ///< e.g. the phase label or fault channel
  std::string category;  ///< emitting layer, e.g. "tb.phase", "mc.fault"
  Seconds sim_begin_s{0.0};
  Seconds sim_end_s{0.0};
  std::uint64_t wall_begin_ns = 0;
  std::uint64_t wall_end_ns = 0;
  bool span = false;
  int depth = 0;  ///< span nesting depth at emission (0 = top level)
  std::vector<std::pair<std::string, std::string>> args;
};

/// Receiver of trace events.  Implementations must tolerate concurrent
/// `record` calls (the multi-core study may one day shard across threads).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(TraceEvent event) = 0;
};

/// A sink that discards everything — the "enabled but writing nowhere"
/// state used by the overhead guard test.
class NullTraceSink final : public TraceSink {
 public:
  void record(TraceEvent) override {}
};

/// In-memory sink with exporters.  This is what `ash_lab --trace` attaches.
class TraceBuffer final : public TraceSink {
 public:
  void record(TraceEvent event) override;

  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::size_t count(EventKind kind) const;

  /// Chrome trace-event format ("traceEvents" array of "X"/"i" phases,
  /// timestamps in microseconds of *simulated* time).  Loadable in
  /// Perfetto and chrome://tracing.
  void write_chrome_json(std::ostream& os) const;

  /// One JSON object per line, all fields, for jq/pandas consumption.
  void write_jsonl(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// Streaming JSONL sink: events flush to disk in bounded chunks instead
/// of accumulating for the whole run.  A three-year mc mission emits an
/// event stream whose in-memory form dwarfs the simulator state;
/// `TraceWriter` caps resident trace memory at `flush_every` events
/// regardless of mission length (pinned by tests/obs/trace_writer_test).
/// Thread-safe like every sink; the destructor flushes the tail.
class TraceWriter final : public TraceSink {
 public:
  /// Opens `path` for writing (truncates).  `flush_every` is the buffered
  /// event count that triggers a chunk write; clamped to >= 1.
  explicit TraceWriter(const std::string& path, std::size_t flush_every = 256);
  ~TraceWriter() override;

  void record(TraceEvent event) override;

  /// Write out any buffered events now.
  void flush();

  /// False when the underlying stream failed (e.g. unwritable path).
  bool ok() const;

  /// Events already written to the stream (excludes the buffered tail).
  std::uint64_t events_written() const;
  /// High-water mark of the in-memory buffer — the bounded-memory
  /// observable: stays <= flush_every however long the run.
  std::size_t max_buffered() const;

 private:
  void flush_locked();

  mutable std::mutex mu_;
  std::unique_ptr<std::ofstream> os_;
  std::size_t flush_every_;
  std::vector<TraceEvent> buffer_;
  std::uint64_t written_ = 0;
  std::size_t max_buffered_ = 0;
};

namespace detail {
inline std::atomic<TraceSink*> g_trace_sink{nullptr};
inline thread_local double g_sim_now_s = 0.0;
inline thread_local int g_span_depth = 0;
void emit(TraceEvent&& event);
}  // namespace detail

/// Attach a sink (nullptr detaches; the default is detached).  The sink
/// must outlive every emission; detach before destroying it.
void set_trace_sink(TraceSink* sink);

/// True when a sink is attached.  Hot paths guard argument construction
/// behind this check.
inline bool tracing() {
  return detail::g_trace_sink.load(std::memory_order_relaxed) != nullptr;
}

/// Publish / read the simulated campaign clock (thread-local, seconds).
inline void set_sim_now(double t_s) { detail::g_sim_now_s = t_s; }
inline double sim_now() { return detail::g_sim_now_s; }

/// Emit an instant event at the current simulated time.  No-op without a
/// sink, but the arguments are still constructed — guard expensive call
/// sites with `if (tracing())`.
void instant(EventKind kind, std::string_view name, std::string_view category,
             std::vector<std::pair<std::string, std::string>> args = {});

/// RAII span.  Opens at construction (simulated begin defaults to
/// `sim_now()`), closes at destruction (simulated end defaults to the
/// then-current `sim_now()`).  Inactive — and free of any allocation —
/// when no sink is attached at construction time.
class Span {
 public:
  Span(EventKind kind, std::string_view name, std::string_view category);
  Span(EventKind kind, std::string_view name, std::string_view category,
       double sim_begin_s);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Attach a key/value argument (no-op when inactive).
  void arg(std::string_view key, std::string_view value);
  /// Override the simulated end time (default: sim_now() at destruction).
  void end_at(double sim_end_s);

  bool active() const { return active_; }

 private:
  bool active_ = false;
  bool have_end_ = false;
  double sim_end_s_ = 0.0;
  TraceEvent event_;
};

}  // namespace ash::obs
