#include "ash/fleet/service.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

#include "ash/mc/margin.h"
#include "ash/obs/clock.h"
#include "ash/obs/metrics.h"
#include "ash/obs/trace.h"
#include "ash/tb/experiment_runner.h"
#include "ash/util/atomic_file.h"
#include "ash/util/double_codec.h"
#include "ash/util/syscall.h"
#include "ash/util/text_reader.h"
#include "ash/util/table.h"

namespace ash::fleet {

namespace {

/// The service's durable state lives in the store under this shard id
/// (its own directory, so it can never collide with campaign shards).
constexpr int kStateShard = 0;

/// Journal size below which no compaction runs, however small the last
/// snapshot: rewriting a state smaller than one filesystem block costs
/// three fsyncs and saves no replay work worth having.
constexpr std::uint64_t kMinCompactionBytes = 4096;

/// Monotonic host milliseconds for I/O deadlines (supervision-layer wall
/// clock, never part of the deterministic payload).
double now_ms() { return static_cast<double>(obs::monotonic_ns()) / 1e6; }

volatile std::sig_atomic_t g_stop = 0;
void handle_stop(int) { g_stop = 1; }

// --- Fatal-signal flight dump --------------------------------------------
// A crashing daemon tries to leave its flight recorder on disk.  The
// handler uses only async-signal-safe calls: sigaction/open/close/rename/
// raise plus FlightRecorder::record/write_fd (atomics and stack buffers).
// The dump goes to a temp name first and renames over the last dump only
// when every write succeeded — a half-written crash dump must never
// clobber a complete one.

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr int kFatalSignalCount =
    static_cast<int>(sizeof kFatalSignals / sizeof kFatalSignals[0]);

obs::FlightRecorder* g_fatal_recorder = nullptr;
char g_fatal_path[512] = {0};
char g_fatal_tmp[520] = {0};
struct sigaction g_old_fatal[kFatalSignalCount];

void handle_fatal(int sig) {
  // Restore the previous dispositions first so a crash inside the handler
  // cannot recurse.
  for (int i = 0; i < kFatalSignalCount; ++i) {
    ::sigaction(kFatalSignals[i], &g_old_fatal[i], nullptr);
  }
  if (g_fatal_recorder != nullptr && g_fatal_path[0] != '\0') {
    g_fatal_recorder->record(obs::FlightEventKind::kFatalSignal,
                             static_cast<std::uint64_t>(sig));
    const int fd = ::open(g_fatal_tmp, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      const bool ok = g_fatal_recorder->write_fd(fd);
      ::close(fd);
      if (ok) (void)::rename(g_fatal_tmp, g_fatal_path);
    }
  }
  (void)::raise(sig);
}

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// --- ServiceState text document -----------------------------------------

constexpr char kStateFormat[] = "ash-fleet-service ";
constexpr char kStateVersion[] = "v3";

[[noreturn]] void state_error(const std::string& detail) {
  throw std::runtime_error("service state: " + detail);
}

}  // namespace

std::string SleepMutation::encode() const {
  std::string out = std::to_string(client_id);
  out += ' ';
  out += std::to_string(request_id);
  out += ' ';
  out += std::to_string(device_id);
  out += ' ';
  out += fmt_double(window.start.value());
  out += ' ';
  out += fmt_double(window.duration.value());
  out += '\n';
  return out;
}

SleepMutation SleepMutation::parse(std::string_view bytes) {
  util::Tokens tokens(bytes.substr(0, bytes.find('\n')), state_error);
  SleepMutation m;
  m.client_id = tokens.next("record client").u64();
  m.request_id = tokens.next("record request").u64();
  m.device_id = tokens.next("record device").u64();
  m.window.start = Seconds{tokens.next("record start").number()};
  m.window.duration = Seconds{tokens.next("record duration").number()};
  // Canonical bytes only: whatever encode() would not write is corrupt.
  if (m.encode() != bytes) state_error("journal record is not canonical");
  return m;
}

ServiceState ServiceState::genesis(std::uint64_t device_count, Volts margin,
                                   std::uint64_t seed) {
  ServiceState state;
  state.margin = margin;
  state.seed = seed;
  state.devices.resize(device_count);
  for (std::uint64_t i = 0; i < device_count; ++i) {
    // One independent stream per device: the prior of device i never moves
    // when the fleet grows (same derivation stability as paper_fleet_shards).
    Rng rng(derive_seed(seed, i));
    state.devices[i].delta_vth = Volts{rng.uniform(0.0, 0.9 * margin.value())};
  }
  return state;
}

std::string ServiceState::serialize() const {
  std::string out = kStateFormat;
  out += kStateVersion;
  out += "\nsequence ";
  out += std::to_string(sequence);
  out += "\nmargin_v ";
  out += fmt_double(margin.value());
  out += "\ndevices ";
  out += std::to_string(devices.size());
  out += "\nseed ";
  out += std::to_string(seed);
  out += '\n';
  for (std::size_t i = 0; i < devices.size(); ++i) {
    for (const SleepWindow& w : devices[i].windows) {
      out += "window ";
      out += std::to_string(i);
      out += ' ';
      out += fmt_double(w.start.value());
      out += ' ';
      out += fmt_double(w.duration.value());
      out += '\n';
    }
  }
  for (const AppliedMutation& m : applied) {
    out += "applied ";
    out += std::to_string(m.client_id);
    out += ' ';
    out += std::to_string(m.request_id);
    out += ' ';
    out += std::to_string(m.windows_after);
    out += '\n';
  }
  out += "end\n";
  return out;
}

ServiceState ServiceState::deserialize(std::string_view bytes) {
  util::LineCursor cursor(bytes, state_error);
  const std::string_view header = cursor.next_line();
  if (header.rfind(kStateFormat, 0) != 0) {
    state_error("bad header '" + std::string(header.substr(0, 40)) + "'");
  }
  const std::string_view version = header.substr(sizeof kStateFormat - 1);
  if (version != kStateVersion) {
    state_error("unsupported document version '" + std::string(version) +
                "' (this build reads " + kStateVersion + ")");
  }
  // Collect everything first; the state is built only from a complete,
  // verified document, so no caller ever sees a partial one.
  util::KeyedDoc head({"sequence", "margin_v", "devices", "seed"},
                      state_error);
  std::uint64_t device_count = 0;
  std::vector<std::pair<std::uint64_t, SleepWindow>> windows;
  std::vector<AppliedMutation> applied;
  for (std::string_view line = cursor.next_line(); line != "end";
       line = cursor.next_line()) {
    util::Tokens tokens(line, state_error);
    const std::string_view tag = tokens.next("tag").text();
    if (tag == "window") {
      if (!head.has("devices")) state_error("'window' line before 'devices'");
      const std::uint64_t id = tokens.next("window device").u64();
      if (id >= device_count) state_error("window device out of range");
      SleepWindow w;
      w.start = Seconds{tokens.next("window start").number()};
      w.duration = Seconds{tokens.next("window duration").number()};
      tokens.expect_end(tag);
      windows.emplace_back(id, w);
    } else if (tag == "applied") {
      if (!head.has("devices")) state_error("'applied' line before 'devices'");
      AppliedMutation m;
      m.client_id = tokens.next("applied client").u64();
      m.request_id = tokens.next("applied request").u64();
      m.windows_after = tokens.next("applied windows").u64();
      tokens.expect_end(tag);
      applied.push_back(m);
    } else {
      head.add(line);
      if (tag != "devices") continue;
      device_count = head["devices"].u64();
      // Checked here, before genesis allocates a table this size: the CRC
      // proves only that the bytes are the ones written, not that they
      // are sane.
      if (device_count > kMaxServiceDevices) {
        state_error("devices " + std::to_string(device_count) +
                    " above the limit of " +
                    std::to_string(kMaxServiceDevices));
      }
    }
  }
  if (!cursor.done()) state_error("content after 'end'");
  head.expect_complete();
  ServiceState state = genesis(device_count, Volts{head["margin_v"].number()},
                               head["seed"].u64());
  state.sequence = head["sequence"].u64();
  for (const auto& [id, w] : windows) state.devices[id].windows.push_back(w);
  state.applied = std::move(applied);
  return state;
}

std::uint64_t ServiceState::apply(const SleepMutation& mutation) {
  std::vector<SleepWindow>& windows = devices.at(mutation.device_id).windows;
  windows.push_back(mutation.window);
  ++sequence;
  applied.push_back(AppliedMutation{mutation.client_id, mutation.request_id,
                                    windows.size()});
  return windows.size();
}

const AppliedMutation* ServiceState::find_applied(
    std::uint64_t client_id, std::uint64_t request_id) const {
  for (const AppliedMutation& m : applied) {
    if (m.client_id == client_id && m.request_id == request_id) return &m;
  }
  return nullptr;
}

std::uint64_t ServiceState::total_windows() const {
  std::uint64_t n = 0;
  for (const DeviceAging& d : devices) n += d.windows.size();
  return n;
}

// --- ServiceStats --------------------------------------------------------

void ServiceStats::publish(obs::Registry& registry) const {
  const auto set = [&registry](const char* name, std::uint64_t value) {
    registry.counter(std::string("fleet.service.") + name).set(value);
  };
  set("connections_accepted", connections_accepted);
  set("connections_rejected", connections_rejected);
  set("evictions", evictions);
  set("frame_errors", frame_errors);
  set("requests", requests);
  set("shed", shed);
  set("responses", responses);
  set("mutations", mutations);
  set("replays", replays);
  set("snapshots_saved", snapshots_saved);
  set("flight_dumps", flight_dumps);
  set("health.poll_iterations", poll_iterations);
  set("health.connections", connections);
  set("health.connections_high_water", connections_high_water);
  set("health.queue_depth_high_water", queue_depth_high_water);
}

// --- Service -------------------------------------------------------------

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      state_store_(config_.state_dir),
      model_(config_.physics),
      recorder_(config_.flight_recorder_capacity) {
  if (config_.devices < 1) {
    throw std::invalid_argument("service: need at least one device");
  }
  if (config_.devices > kMaxServiceDevices) {
    throw std::invalid_argument("service: devices " +
                                std::to_string(config_.devices) +
                                " above the limit of " +
                                std::to_string(kMaxServiceDevices));
  }
  if (config_.max_request_queue < 1 || config_.max_connections < 1 ||
      config_.io_timeout_ms < 1 || config_.poll_interval_ms < 1) {
    throw std::invalid_argument("service: nonsensical limits");
  }
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument("service: bad socket path '" +
                                config_.socket_path + "'");
  }
  if (config_.instrument) {
    // Register once here; the request path only dereferences pointers.
    auto& reg = obs::registry();
    const auto slot = [&](MessageType type, const char* name) {
      latency_[static_cast<std::size_t>(type)] = &reg.histogram(name);
    };
    slot(MessageType::kPingRequest, "fleet.service.latency.ping");
    slot(MessageType::kMarginRequest, "fleet.service.latency.margin");
    slot(MessageType::kMarginBatchRequest,
         "fleet.service.latency.margin_batch");
    slot(MessageType::kRejuvenationRequest,
         "fleet.service.latency.rejuvenation");
    slot(MessageType::kScheduleSleepRequest,
         "fleet.service.latency.schedule_sleep");
    slot(MessageType::kStatusRequest, "fleet.service.latency.status");
    slot(MessageType::kMetricsRequest, "fleet.service.latency.metrics");
    queue_wait_ = &reg.histogram("fleet.service.queue_wait");
  }
  // Recovery: the newest snapshot that verifies, rolled forward by the
  // journal records past it in sequence order, up to the first damaged
  // record or gap.  Records at or below the state's sequence are already
  // in the snapshot (a crash between a compaction's snapshot and its
  // journal rotation leaves them behind) and are skipped, never applied
  // twice.
  const auto loaded = state_store_.load_newest_valid(kStateShard);
  if (loaded) {
    state_ = ServiceState::deserialize(loaded->payload);
    snapshot_bytes_ = kSnapshotHeaderSize + loaded->payload.size();
  } else {
    state_ = ServiceState::genesis(config_.devices, config_.margin,
                                   config_.seed);
  }
  const auto replay = [&](const DecodedSnapshot& record) {
    if (record.shard_id != kStateShard ||
        record.sequence != state_.sequence + 1) {
      return false;
    }
    try {
      const SleepMutation mutation = SleepMutation::parse(record.payload);
      if (mutation.device_id >= state_.devices.size()) return false;
      (void)state_.apply(mutation);
      return true;
    } catch (const std::runtime_error&) {
      return false;  // CRC-valid nonsense is damage too
    }
  };
  const auto journals = state_store_.journal_files(kStateShard);
  // Whether the newest journal ends exactly at the recovered state, so the
  // next record can be appended to it; its valid prefix is what stays.
  bool resumable = false;
  std::uint64_t keep_bytes = 0;
  for (const auto& [base, path] : journals) {
    const SnapshotPrefix prefix = Journal::records(path);
    bool consumed = true;
    for (const DecodedSnapshot& record : prefix.frames) {
      if (record.sequence > state_.sequence && !replay(record)) {
        consumed = false;
        break;
      }
    }
    const std::uint64_t end =
        prefix.frames.empty() ? base : prefix.frames.back().sequence;
    resumable = consumed && end == state_.sequence;
    keep_bytes = prefix.valid_bytes;
  }
  durable_sequence_ = state_.sequence;
  recorder_.record(obs::FlightEventKind::kDaemonStart, state_.sequence);
  if (loaded) {
    recorder_.record(obs::FlightEventKind::kStateLoaded, state_.sequence);
  } else {
    recorder_.record(obs::FlightEventKind::kStateGenesis);
  }
  if (loaded && resumable) {
    journal_ = std::make_unique<Journal>(journals.rbegin()->second,
                                         keep_bytes);
  } else {
    // Genesis, or no journal that can take the next record.
    save_snapshot();
    persist_flight();
  }
}

void Service::journal_mutation(const SleepMutation& mutation) {
  journal_->append(kStateShard, state_.sequence, mutation.encode());
  durable_sequence_ = state_.sequence;
  if (journal_->bytes() > std::max(snapshot_bytes_, kMinCompactionBytes)) {
    save_snapshot();
  }
}

void Service::save_snapshot() {
  const std::string payload = state_.serialize();
  state_store_.save(kStateShard, state_.sequence, payload);
  state_store_.prune(kStateShard, 16);
  snapshot_bytes_ = kSnapshotHeaderSize + payload.size();
  durable_sequence_ = state_.sequence;
  const std::string path =
      state_store_.journal_path(kStateShard, state_.sequence);
  if (journal_ == nullptr || journal_->path() != path) {
    const std::string retired = journal_ ? journal_->path() : std::string();
    journal_ = std::make_unique<Journal>(path, 0);
    for (const auto& [base, file] : state_store_.journal_files(kStateShard)) {
      if (file != path && file != retired) ::unlink(file.c_str());
    }
  }
  ++stats_.snapshots_saved;
  recorder_.record(obs::FlightEventKind::kSnapshotSaved, state_.sequence,
                   payload.size());
  if (obs::tracing()) {
    obs::instant(obs::EventKind::kFleetSnapshot, "state", "fleet.service",
                 {{"sequence", std::to_string(state_.sequence)}});
  }
}

void Service::persist_flight() {
  if (config_.flight_recorder_path.empty() || !recorder_.enabled()) return;
  flight_dumped_at_ = recorder_.recorded();
  ++stats_.flight_dumps;
  try {
    util::replace_file(config_.flight_recorder_path, recorder_.serialize());
  } catch (const std::exception&) {
    // Best-effort telemetry: a full disk must never take the daemon down.
  }
}

obs::Histogram* Service::latency_histogram(MessageType type) const {
  const auto raw = static_cast<std::size_t>(type);
  return raw < latency_.size() ? latency_[raw] : nullptr;
}

void Service::publish_volatile(obs::Registry& registry) const {
  stats_.publish(registry);
  protocol_tallies().publish(registry);
  registry.counter("fleet.service.health.snapshot_lag").set(snapshot_lag());
  registry.counter("fleet.service.health.draining").set(draining_ ? 1 : 0);
}

Frame Service::respond(const Frame& request) {
  // Uninstrumented, the timer holds a null pointer and performs no clock
  // read; without a trace sink the span allocates nothing.
  const obs::ScopedTimer timer(latency_histogram(request.type));
  obs::Span span(obs::EventKind::kFleetRequest, to_string(request.type),
                 "fleet.service");
  if (span.active()) {
    span.arg("request_id", std::to_string(request.request_id));
  }
  try {
    switch (request.type) {
      case MessageType::kPingRequest:
        (void)PingRequest::parse(request.payload);
        return Frame{MessageType::kPingResponse, request.request_id,
                     PingResponse{}.encode()};
      case MessageType::kMarginRequest:
        return respond_margin(request);
      case MessageType::kMarginBatchRequest:
        return respond_margin_batch(request);
      case MessageType::kRejuvenationRequest:
        return respond_rejuvenation(request);
      case MessageType::kScheduleSleepRequest:
        return respond_schedule_sleep(request);
      case MessageType::kStatusRequest:
        return respond_status(request);
      case MessageType::kMetricsRequest:
        return respond_metrics(request);
      default:
        throw ProtocolError(std::string("not a request type: ") +
                            to_string(request.type));
    }
  } catch (const ProtocolError& e) {
    ErrorResponse err;
    err.status = Status::kBadRequest;
    err.message = e.what();
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  } catch (const std::invalid_argument& e) {
    ErrorResponse err;
    err.status = Status::kBadRequest;
    err.message = e.what();
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
}

Frame Service::respond_margin(const Frame& request) {
  const MarginRequest req = MarginRequest::parse(request.payload);
  if (req.device_id >= state_.devices.size()) {
    ErrorResponse err;
    err.status = Status::kUnknownDevice;
    err.message = strformat("device %llu not tracked (fleet has %llu)",
                            static_cast<unsigned long long>(req.device_id),
                            static_cast<unsigned long long>(
                                state_.devices.size()));
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
  mc::MarginQuery query;
  query.delta_vth = state_.devices[req.device_id].delta_vth;
  query.margin = state_.margin;
  query.duty = req.duty;
  query.vdd = req.vdd;
  query.temp = req.temp;
  query.horizon = req.horizon;
  const mc::MarginOutlook outlook = mc::margin_outlook(model_, query);
  MarginResponse resp;
  resp.status = Status::kOk;
  resp.crosses = outlook.crosses;
  resp.time_to_margin = outlook.time_to_margin;
  resp.delta_vth = query.delta_vth;
  resp.margin = query.margin;
  return Frame{MessageType::kMarginResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_margin_batch(const Frame& request) {
  const MarginBatchRequest req = MarginBatchRequest::parse(request.payload);
  for (std::uint64_t id : req.device_ids) {
    if (id >= state_.devices.size()) {
      ErrorResponse err;
      err.status = Status::kUnknownDevice;
      err.message = strformat("device %llu not tracked (fleet has %llu)",
                              static_cast<unsigned long long>(id),
                              static_cast<unsigned long long>(
                                  state_.devices.size()));
      return Frame{MessageType::kErrorResponse, request.request_id,
                   err.encode()};
    }
  }
  std::vector<mc::MarginQuery> queries;
  queries.reserve(req.device_ids.size());
  for (std::uint64_t id : req.device_ids) {
    mc::MarginQuery query;
    query.delta_vth = state_.devices[id].delta_vth;
    query.margin = state_.margin;
    query.duty = req.duty;
    query.vdd = req.vdd;
    query.temp = req.temp;
    query.horizon = req.horizon;
    queries.push_back(query);
  }
  // The batched overload hoists the shared-schedule work once; each row
  // stays bit-identical to the single-device respond_margin answer.
  const std::vector<mc::MarginOutlook> outlooks =
      mc::margin_outlook(model_, queries);
  MarginBatchResponse resp;
  resp.status = Status::kOk;
  resp.margin = state_.margin;
  resp.rows.reserve(outlooks.size());
  for (std::size_t i = 0; i < outlooks.size(); ++i) {
    MarginBatchRow row;
    row.device_id = req.device_ids[i];
    row.crosses = outlooks[i].crosses;
    row.time_to_margin = outlooks[i].time_to_margin;
    row.delta_vth = queries[i].delta_vth;
    resp.rows.push_back(row);
  }
  return Frame{MessageType::kMarginBatchResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_rejuvenation(const Frame& request) {
  (void)RejuvenationRequest::parse(request.payload);  // validate only
  RejuvenationResponse resp;
  resp.status = Status::kOk;
  if (!config_.campaign_dir.empty() && config_.shard_count > 0) {
    try {
      const CheckpointStore campaigns(config_.campaign_dir);
      for (int sid = 0; sid < config_.shard_count; ++sid) {
        const auto loaded = campaigns.load_newest_valid(sid);
        if (!loaded) continue;
        try {
          const auto checkpoint =
              tb::CampaignCheckpoint::deserialize(loaded->payload);
          const double degradation =
              checkpoint.log.fractional_degradation();
          // Strict > keeps the lowest shard id on ties — deterministic.
          if (!resp.any || degradation > resp.degradation) {
            resp.any = true;
            resp.shard_id = sid;
            resp.degradation = degradation;
          }
        } catch (const std::exception&) {
          continue;  // unreadable snapshot: skip, never crash the query
        }
      }
    } catch (const std::runtime_error&) {
      // campaign_dir unusable: answer "no shard" rather than fail
    }
  }
  return Frame{MessageType::kRejuvenationResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_schedule_sleep(const Frame& request) {
  const ScheduleSleepRequest req =
      ScheduleSleepRequest::parse(request.payload);
  const auto ack = [&](std::uint64_t windows_after) {
    ScheduleSleepResponse resp;
    resp.status = Status::kOk;
    resp.newly_applied = true;
    resp.windows = windows_after;
    return Frame{MessageType::kScheduleSleepResponse, request.request_id,
                 resp.encode()};
  };
  if (const AppliedMutation* m =
          state_.find_applied(req.client_id, request.request_id)) {
    // Idempotent replay: the original acknowledgement bytes, rebuilt — a
    // retrying client cannot double-book and cannot tell it retried.
    ++stats_.replays;
    recorder_.record(obs::FlightEventKind::kMutationReplayed, req.client_id,
                     request.request_id);
    return ack(m->windows_after);
  }
  if (req.device_id >= state_.devices.size()) {
    ErrorResponse err;
    err.status = Status::kUnknownDevice;
    err.message = strformat("device %llu not tracked (fleet has %llu)",
                            static_cast<unsigned long long>(req.device_id),
                            static_cast<unsigned long long>(
                                state_.devices.size()));
    return Frame{MessageType::kErrorResponse, request.request_id,
                 err.encode()};
  }
  const SleepMutation mutation{req.client_id, request.request_id,
                               req.device_id,
                               SleepWindow{req.start, req.duration}};
  const std::uint64_t windows = state_.apply(mutation);
  recorder_.record(obs::FlightEventKind::kMutationApplied, req.device_id,
                   state_.sequence);
  if (obs::tracing()) {
    obs::instant(obs::EventKind::kFleetApply, "schedule_sleep",
                 "fleet.service",
                 {{"client_id", std::to_string(req.client_id)},
                  {"request_id", std::to_string(request.request_id)},
                  {"device", std::to_string(req.device_id)}});
  }
  // Write-ahead: the mutation is durable *before* the ack is queued, so a
  // SIGKILL in between replays the same ack instead of double-applying.
  journal_mutation(mutation);
  ++stats_.mutations;
  return ack(windows);
}

Frame Service::respond_status(const Frame& request) {
  (void)StatusRequest::parse(request.payload);  // validate only
  StatusResponse resp;
  resp.status = Status::kOk;
  resp.devices = state_.devices.size();
  resp.windows = state_.total_windows();
  resp.sequence = state_.sequence;
  resp.draining = draining_;
  return Frame{MessageType::kStatusResponse, request.request_id,
               resp.encode()};
}

Frame Service::respond_metrics(const Frame& request) {
  const MetricsRequest req = MetricsRequest::parse(request.payload);
  // Refresh the registry from every volatile tally first, so a scrape is
  // never staler than the poll tick it landed on.
  publish_volatile(obs::registry());
  MetricsResponse resp;
  resp.status = Status::kOk;
  resp.text = obs::registry().snapshot().filtered(req.prefix).render();
  return Frame{MessageType::kMetricsResponse, request.request_id,
               resp.encode()};
}

std::vector<Frame> Service::process_tick(const std::vector<Frame>& requests) {
  std::vector<Frame> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i < static_cast<std::size_t>(config_.max_request_queue)) {
      ++stats_.requests;
      responses.push_back(respond(requests[i]));
    } else {
      // Bounded queue: explicit load shed, never silent latency or OOM.
      ++stats_.shed;
      recorder_.record(obs::FlightEventKind::kRequestShed,
                       requests[i].request_id);
      ErrorResponse err;
      err.status = Status::kOverloaded;
      err.message = strformat("request queue full (%d admitted per tick)",
                              config_.max_request_queue);
      responses.push_back(Frame{MessageType::kErrorResponse,
                                requests[i].request_id, err.encode()});
    }
    ++stats_.responses;
  }
  return responses;
}

void Service::run() {
  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string outbox;
    double last_io_ms = 0.0;
    bool dead = false;
  };

  const int listen_fd = ::socket(
      AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) throw std::runtime_error(errno_message("socket"));
  ::unlink(config_.socket_path.c_str());  // stale path from a SIGKILL
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  if (util::retry_eintr([&] {
        return ::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr);
      }) < 0) {
    ::close(listen_fd);
    throw std::runtime_error(errno_message("bind"));
  }
  if (util::retry_eintr([&] { return ::listen(listen_fd, 64); }) < 0) {
    ::close(listen_fd);
    throw std::runtime_error(errno_message("listen"));
  }

  // SIGTERM/SIGINT flip the drain flag; no SA_RESTART so poll() wakes.
  g_stop = 0;
  struct sigaction stop_action{};
  stop_action.sa_handler = handle_stop;
  sigemptyset(&stop_action.sa_mask);
  struct sigaction old_term{}, old_int{}, old_pipe{};
  ::sigaction(SIGTERM, &stop_action, &old_term);
  ::sigaction(SIGINT, &stop_action, &old_int);
  struct sigaction ignore_pipe{};
  ignore_pipe.sa_handler = SIG_IGN;
  sigemptyset(&ignore_pipe.sa_mask);
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  // Fatal-signal best-effort flight dump (restored on return).
  const bool fatal_dump =
      recorder_.enabled() && !config_.flight_recorder_path.empty() &&
      config_.flight_recorder_path.size() + 7 < sizeof g_fatal_path;
  if (fatal_dump) {
    g_fatal_recorder = &recorder_;
    std::snprintf(g_fatal_path, sizeof g_fatal_path, "%s",
                  config_.flight_recorder_path.c_str());
    std::snprintf(g_fatal_tmp, sizeof g_fatal_tmp, "%s.fatal",
                  config_.flight_recorder_path.c_str());
    struct sigaction fatal_action{};
    fatal_action.sa_handler = handle_fatal;
    sigemptyset(&fatal_action.sa_mask);
    for (int i = 0; i < kFatalSignalCount; ++i) {
      ::sigaction(kFatalSignals[i], &fatal_action, &g_old_fatal[i]);
    }
  }

  std::vector<Conn> conns;
  std::vector<pollfd> fds;
  std::vector<std::pair<std::size_t, Frame>> tick_requests;
  std::vector<std::uint64_t> tick_decode_ns;

  while (g_stop == 0) {
    ++stats_.poll_iterations;
    fds.clear();
    fds.push_back(pollfd{listen_fd, POLLIN, 0});
    for (const Conn& c : conns) {
      short events = POLLIN;
      if (!c.outbox.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
    }
    if (util::retry_eintr([&] {
          return ::poll(fds.data(), fds.size(), config_.poll_interval_ms);
        }) < 0) {
      break;  // unexpected poll failure: drain and exit
    }
    const double now = now_ms();

    // Accept everything pending — only when poll flagged the listener, so
    // a tick of plain traffic makes no accept4 call; the loop ends at
    // EAGAIN.  Beyond the cap, turn clients away with an immediate close
    // (their backoff handles the rest).
    while ((fds[0].revents & POLLIN) != 0) {
      const int fd = util::retry_eintr([&] {
        return ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      });
      if (fd < 0) break;
      if (conns.size() >= static_cast<std::size_t>(config_.max_connections)) {
        ::close(fd);
        ++stats_.connections_rejected;
        recorder_.record(obs::FlightEventKind::kConnectionRejected);
        continue;
      }
      Conn conn;
      conn.fd = fd;
      conn.last_io_ms = now;
      conns.push_back(std::move(conn));
      ++stats_.connections_accepted;
      recorder_.record(obs::FlightEventKind::kConnectionAccepted,
                       conns.size());
      if (obs::tracing()) {
        obs::instant(obs::EventKind::kFleetAccept, "accept", "fleet.service",
                     {{"connections", std::to_string(conns.size())}});
      }
    }
    // Counted again after the accepts, so a scrape answered this tick
    // sees its own connection, as the high-water mark does.
    stats_.connections = conns.size();
    stats_.connections_high_water =
        std::max(stats_.connections_high_water, stats_.connections);

    // Read: drain every readable connection into its frame reader; a
    // framing violation poisons the reader and the connection dies —
    // resynchronising inside a hostile byte stream is not a thing.
    tick_requests.clear();
    tick_decode_ns.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = util::retry_eintr(
            [&] { return ::recv(c.fd, buf, sizeof buf, 0); });
        if (n > 0) {
          c.last_io_ms = now;
          try {
            c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          } catch (const ProtocolError& e) {
            ++stats_.frame_errors;
            recorder_.record(
                obs::FlightEventKind::kFrameError,
                static_cast<std::uint64_t>(e.violation()));
            c.dead = true;
            break;
          }
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        c.dead = true;  // EOF or hard error
        break;
      }
      while (!c.dead) {
        try {
          auto frame = c.reader.next();
          if (!frame) break;
          tick_requests.emplace_back(i, std::move(*frame));
          if (queue_wait_ != nullptr) {
            tick_decode_ns.push_back(obs::monotonic_ns());
          }
        } catch (const ProtocolError& e) {
          ++stats_.frame_errors;
          recorder_.record(obs::FlightEventKind::kFrameError,
                           static_cast<std::uint64_t>(e.violation()));
          c.dead = true;
        }
      }
    }
    stats_.queue_depth_high_water =
        std::max(stats_.queue_depth_high_water,
                 static_cast<std::uint64_t>(tick_requests.size()));

    // Process this tick's admitted requests; shed the overflow.
    if (!tick_requests.empty()) {
      std::vector<Frame> requests;
      requests.reserve(tick_requests.size());
      for (auto& [conn_idx, frame] : tick_requests) {
        requests.push_back(std::move(frame));
      }
      if (queue_wait_ != nullptr) {
        // Decode-to-dispatch wait: how long a decoded frame sat behind
        // this tick's socket reads before processing began.
        const std::uint64_t dispatch_ns = obs::monotonic_ns();
        for (const std::uint64_t decoded_ns : tick_decode_ns) {
          queue_wait_->observe_ns(dispatch_ns - decoded_ns);
        }
      }
      const std::vector<Frame> responses = process_tick(requests);
      for (std::size_t r = 0; r < responses.size(); ++r) {
        Conn& c = conns[tick_requests[r].first];
        if (c.dead) continue;
        c.outbox += frame_message(responses[r].type, responses[r].request_id,
                                  responses[r].payload);
        if (obs::tracing()) {
          obs::instant(
              obs::EventKind::kFleetAck, to_string(responses[r].type),
              "fleet.service",
              {{"request_id", std::to_string(responses[r].request_id)}});
        }
      }
    }

    // Write what fits; a client that never drains hits the deadline below.
    for (Conn& c : conns) {
      if (c.dead || c.outbox.empty()) continue;
      const ssize_t n = util::retry_eintr([&] {
        return ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      });
      if (n > 0) {
        c.outbox.erase(0, static_cast<std::size_t>(n));
        c.last_io_ms = now;
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        c.dead = true;
      }
    }

    // Slow-loris eviction: pending work + no byte moved within the
    // deadline means the peer is stalling us — drop it.
    for (Conn& c : conns) {
      if (c.dead) continue;
      const bool pending = c.reader.buffered() > 0 || !c.outbox.empty();
      if (pending && now - c.last_io_ms > config_.io_timeout_ms) {
        c.dead = true;
        ++stats_.evictions;
        recorder_.record(obs::FlightEventKind::kEviction);
      }
    }

    for (std::size_t i = conns.size(); i-- > 0;) {
      if (conns[i].dead) {
        ::close(conns[i].fd);
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    stats_.connections = conns.size();

    // The tick's acks are on the wire; now, and only if the tick recorded
    // an event (reads record none), refresh the flight dump before the
    // next poll.
    if (recorder_.recorded() != flight_dumped_at_) persist_flight();
  }

  // Graceful drain: no new connections, flush what is owed, then persist.
  draining_ = true;
  recorder_.record(obs::FlightEventKind::kDrainBegin);
  ::close(listen_fd);
  const double drain_deadline = now_ms() + config_.io_timeout_ms;
  for (;;) {
    bool owed = false;
    for (Conn& c : conns) owed = owed || (!c.dead && !c.outbox.empty());
    if (!owed || now_ms() > drain_deadline) break;
    for (Conn& c : conns) {
      if (c.dead || c.outbox.empty()) continue;
      const ssize_t n = util::retry_eintr([&] {
        return ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
      });
      if (n > 0) {
        c.outbox.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        c.dead = true;
      }
    }
    pollfd tick{conns.empty() ? -1 : conns.front().fd, POLLOUT, 0};
    (void)util::retry_eintr([&] { return ::poll(&tick, 1, 10); });
  }
  for (Conn& c : conns) ::close(c.fd);
  conns.clear();

  // The final durable checkpoint of the drain contract, then the drain's
  // one flight dump, already holding kDrainEnd.
  save_snapshot();
  recorder_.record(obs::FlightEventKind::kDrainEnd);
  persist_flight();

  // Crash-consistent metrics dump: every volatile tally published, the
  // flight dump above included, then one atomic write — a kill mid-drain
  // leaves the previous complete file, never a torn one.
  publish_volatile(obs::registry());
  if (!config_.metrics_path.empty()) {
    std::ostringstream os;
    obs::registry().snapshot().write(os);
    util::atomic_write_file(config_.metrics_path, os.str());
  }

  ::unlink(config_.socket_path.c_str());
  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  if (fatal_dump) {
    for (int i = 0; i < kFatalSignalCount; ++i) {
      ::sigaction(kFatalSignals[i], &g_old_fatal[i], nullptr);
    }
    g_fatal_recorder = nullptr;
  }
}

void ForkedDaemon::start() {
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("ForkedDaemon: fork failed");
  if (pid_ == 0) {
    try {
      Service service(config_);
      service.run();
      std::_Exit(0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetd[forked daemon]: %s\n", e.what());
      std::_Exit(3);
    }
  }
}

void ForkedDaemon::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  (void)util::retry_eintr([&] { return ::waitpid(pid_, &status, 0); });
  pid_ = -1;
}

void ForkedDaemon::kill_and_restart() {
  kill();
  start();
}

int ForkedDaemon::terminate() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  (void)util::retry_eintr([&] { return ::waitpid(pid_, &status, 0); });
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace ash::fleet
