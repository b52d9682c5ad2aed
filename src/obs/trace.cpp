#include "ash/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <ostream>

#include "ash/obs/clock.h"
#include "ash/util/table.h"

namespace ash::obs {

namespace {

/// JSON string escaping (control characters, quotes, backslashes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_args_object(std::ostream& os, const TraceEvent& e) {
  os << "{\"kind\":\"" << to_string(e.kind) << "\",\"depth\":" << e.depth
     << ",\"wall_ms\":"
     << strformat("%.3f",
                  static_cast<double>(e.wall_end_ns - e.wall_begin_ns) / 1e6);
  for (const auto& [k, v] : e.args) {
    os << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  os << "}";
}

/// One event as a single JSONL line (`TraceBuffer` and `TraceWriter`).
void write_jsonl_line(std::ostream& os, const TraceEvent& e) {
  os << "{\"kind\":\"" << to_string(e.kind) << "\",\"name\":\""
     << json_escape(e.name) << "\",\"cat\":\"" << json_escape(e.category)
     << "\",\"span\":" << (e.span ? "true" : "false")
     << ",\"depth\":" << e.depth
     << ",\"sim_begin_s\":" << strformat("%.6f", e.sim_begin_s.value())
     << ",\"sim_end_s\":" << strformat("%.6f", e.sim_end_s.value())
     << ",\"wall_begin_ns\":" << strformat("%" PRIu64, e.wall_begin_ns)
     << ",\"wall_end_ns\":" << strformat("%" PRIu64, e.wall_end_ns);
  for (const auto& [k, v] : e.args) {
    os << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  os << "}\n";
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kRun: return "run";
    case EventKind::kPhase: return "phase";
    case EventKind::kPhaseTransition: return "phase_transition";
    case EventKind::kMeasurement: return "measurement";
    case EventKind::kFaultInjected: return "fault_injected";
    case EventKind::kFaultDetected: return "fault_detected";
    case EventKind::kRetry: return "retry";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kQuarantineRelease: return "quarantine_release";
    case EventKind::kFailover: return "failover";
    case EventKind::kCheckpointSave: return "checkpoint_save";
    case EventKind::kCheckpointRewind: return "checkpoint_rewind";
    case EventKind::kHeartbeatMiss: return "heartbeat_miss";
    case EventKind::kWorkerRestart: return "worker_restart";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kWorkerQuarantine: return "worker_quarantine";
    case EventKind::kFleetAccept: return "fleet_accept";
    case EventKind::kFleetRequest: return "fleet_request";
    case EventKind::kFleetApply: return "fleet_apply";
    case EventKind::kFleetSnapshot: return "fleet_snapshot";
    case EventKind::kFleetAck: return "fleet_ack";
  }
  return "unknown";
}

namespace detail {

void emit(TraceEvent&& event) {
  TraceSink* sink = g_trace_sink.load(std::memory_order_acquire);
  if (sink != nullptr) sink->record(std::move(event));
}

}  // namespace detail

void set_trace_sink(TraceSink* sink) {
  detail::g_trace_sink.store(sink, std::memory_order_release);
}

void instant(EventKind kind, std::string_view name, std::string_view category,
             std::vector<std::pair<std::string, std::string>> args) {
  if (!tracing()) return;
  TraceEvent e;
  e.kind = kind;
  e.name.assign(name);
  e.category.assign(category);
  e.sim_begin_s = e.sim_end_s = Seconds{sim_now()};
  e.wall_begin_ns = e.wall_end_ns = monotonic_ns();
  e.span = false;
  e.depth = detail::g_span_depth;
  e.args = std::move(args);
  detail::emit(std::move(e));
}

Span::Span(EventKind kind, std::string_view name, std::string_view category)
    : Span(kind, name, category, sim_now()) {}

Span::Span(EventKind kind, std::string_view name, std::string_view category,
           double sim_begin_s) {
  if (!tracing()) return;
  active_ = true;
  event_.kind = kind;
  event_.name.assign(name);
  event_.category.assign(category);
  event_.sim_begin_s = Seconds{sim_begin_s};
  event_.wall_begin_ns = monotonic_ns();
  event_.span = true;
  event_.depth = detail::g_span_depth++;
}

void Span::arg(std::string_view key, std::string_view value) {
  if (!active_) return;
  event_.args.emplace_back(std::string(key), std::string(value));
}

void Span::end_at(double sim_end_s) {
  if (!active_) return;
  have_end_ = true;
  sim_end_s_ = sim_end_s;
}

Span::~Span() {
  if (!active_) return;
  --detail::g_span_depth;
  event_.sim_end_s = Seconds{have_end_ ? sim_end_s_ : sim_now()};
  event_.wall_end_ns = monotonic_ns();
  detail::emit(std::move(event_));
}

void TraceBuffer::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> TraceBuffer::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t TraceBuffer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::size_t TraceBuffer::count(EventKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

void TraceBuffer::write_chrome_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.category) << "\",\"pid\":1,\"tid\":1,\"ts\":"
       << strformat("%.3f", e.sim_begin_s.value() * 1e6);
    if (e.span) {
      os << ",\"ph\":\"X\",\"dur\":"
         << strformat("%.3f", (e.sim_end_s - e.sim_begin_s).value() * 1e6);
    } else {
      os << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    os << ",\"args\":";
    write_args_object(os, e);
    os << "}";
  }
  os << "\n]}\n";
}

void TraceBuffer::write_jsonl(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : events_) write_jsonl_line(os, e);
}

TraceWriter::TraceWriter(const std::string& path, std::size_t flush_every)
    : os_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      flush_every_(std::max<std::size_t>(1, flush_every)) {
  buffer_.reserve(flush_every_);
}

TraceWriter::~TraceWriter() {
  const std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void TraceWriter::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  buffer_.push_back(std::move(event));
  max_buffered_ = std::max(max_buffered_, buffer_.size());
  if (buffer_.size() >= flush_every_) flush_locked();
}

void TraceWriter::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void TraceWriter::flush_locked() {
  for (const auto& e : buffer_) write_jsonl_line(*os_, e);
  written_ += buffer_.size();
  buffer_.clear();
  os_->flush();
}

bool TraceWriter::ok() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return os_->good();
}

std::uint64_t TraceWriter::events_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::size_t TraceWriter::max_buffered() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return max_buffered_;
}

}  // namespace ash::obs
