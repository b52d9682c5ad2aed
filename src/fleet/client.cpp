#include "ash/fleet/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "ash/obs/clock.h"
#include "ash/obs/metrics.h"
#include "ash/util/syscall.h"
#include "ash/util/table.h"

namespace ash::fleet {

namespace {

double now_ms() { return static_cast<double>(obs::monotonic_ns()) / 1e6; }

void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000.0);
  ts.tv_nsec = static_cast<long>((ms - 1000.0 * static_cast<double>(ts.tv_sec)) * 1e6);
  (void)util::retry_eintr([&] { return ::nanosleep(&ts, &ts); });
}

/// Terminal (non-retryable) error statuses: the daemon *did* answer; the
/// answer is deterministic, so retrying cannot change it.
bool retryable_status(Status status) {
  return status == Status::kOverloaded || status == Status::kShuttingDown;
}

}  // namespace

std::string ClientStats::render() const {
  std::string out = "client stats:\n";
  out += strformat("  calls        %llu (attempts %llu, reconnects %llu)\n",
                   static_cast<unsigned long long>(calls),
                   static_cast<unsigned long long>(attempts),
                   static_cast<unsigned long long>(reconnects));
  out += strformat("  io failures  %llu, overloaded retries %llu\n",
                   static_cast<unsigned long long>(io_failures),
                   static_cast<unsigned long long>(overloaded_retries));
  out += strformat(
      "  chaos        drops %llu, tears %llu, stalls %llu, kills %llu\n",
      static_cast<unsigned long long>(drops_injected),
      static_cast<unsigned long long>(truncations_injected),
      static_cast<unsigned long long>(stalls_injected),
      static_cast<unsigned long long>(daemon_kills_injected));
  out += strformat("  backoff      %.1f ms total\n", backoff_total_ms);
  return out;
}

Client::Client(ClientConfig config) : config_(std::move(config)) {
  if (config_.max_attempts < 1) {
    throw std::invalid_argument("client: max_attempts must be >= 1");
  }
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::invalid_argument("client: bad socket path '" +
                                config_.socket_path + "'");
  }
  if (config_.instrument) {
    rtt_hist_ = &obs::registry().histogram("fleet.client.rtt_s");
  }
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Client::ensure_connected() {
  if (fd_ >= 0) return true;
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  const int rc = util::retry_eintr([&] {
    return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
  });
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return false;
  }
  if (rc < 0) {
    // Nonblocking connect in flight: wait for writability, then check.
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = util::retry_eintr(
        [&] { return ::poll(&pfd, 1, config_.io_timeout_ms); });
    int err = 0;
    socklen_t len = sizeof err;
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      ::close(fd);
      return false;
    }
  }
  fd_ = fd;
  ++stats_.reconnects;
  return true;
}

bool Client::send_all(std::string_view bytes) {
  std::size_t sent = 0;
  const double deadline = now_ms() + config_.io_timeout_ms;
  while (sent < bytes.size()) {
    const ssize_t n = util::retry_eintr([&] {
      return ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                    MSG_NOSIGNAL);
    });
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (now_ms() > deadline) return false;
      pollfd pfd{fd_, POLLOUT, 0};
      (void)util::retry_eintr([&] { return ::poll(&pfd, 1, 20); });
      continue;
    }
    return false;  // EPIPE / reset: the daemon dropped us
  }
  return true;
}

/// Read frames until one with the expected request id arrives (a verified
/// stray id is a protocol violation — drop the connection).  False on
/// timeout, EOF or framing error; the connection is dropped so no stale
/// response can bleed into the next attempt.
bool Client::read_frame(Frame& out, std::uint64_t expect_request_id) {
  FrameReader reader;
  const double deadline = now_ms() + config_.io_timeout_ms;
  char buf[65536];
  for (;;) {
    try {
      if (auto frame = reader.next()) {
        if (frame->request_id != expect_request_id) {
          disconnect();
          return false;
        }
        out = std::move(*frame);
        return true;
      }
    } catch (const ProtocolError&) {
      disconnect();
      return false;
    }
    const double left = deadline - now_ms();
    if (left <= 0.0) {
      disconnect();  // a late response must not reach the next attempt
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = util::retry_eintr([&] {
      return ::poll(&pfd, 1, std::max(1, static_cast<int>(left)));
    });
    if (ready <= 0) continue;
    const ssize_t n =
        util::retry_eintr([&] { return ::recv(fd_, buf, sizeof buf, 0); });
    if (n > 0) {
      try {
        reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      } catch (const ProtocolError&) {
        disconnect();
        return false;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    disconnect();  // EOF or hard error
    return false;
  }
}

void Client::backoff(int attempt) {
  double ms = config_.backoff_initial_ms;
  for (int i = 0; i < attempt; ++i) ms *= config_.backoff_multiplier;
  ms = std::min(ms, static_cast<double>(config_.backoff_max_ms));
  stats_.backoff_total_ms += ms;
  sleep_ms(ms);
}

Frame Client::call(MessageType type, const std::string& payload) {
  // The id survives every retry of this call — the idempotency contract.
  const std::uint64_t id = next_request_id_++;
  const int req_index = request_index_++;
  const std::string frame = frame_message(type, id, payload);

  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    ++stats_.attempts;
    const std::uint64_t rtt_begin_ns =
        rtt_hist_ != nullptr ? obs::monotonic_ns() : 0;
    const ProtocolChaosAgent agent(config_.chaos, req_index, attempt);

    if (agent.kill_daemon_scheduled() && config_.kill_daemon) {
      // Harness-owned: SIGKILL + restart-from-snapshot, synchronously.
      config_.kill_daemon();
      ++stats_.daemon_kills_injected;
      disconnect();
    }
    if (!ensure_connected()) {
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }
    if (agent.drop_scheduled()) {
      disconnect();
      ++stats_.drops_injected;
      backoff(attempt);
      continue;
    }
    bool delivered = false;
    if (agent.truncate_scheduled()) {
      // Mid-frame tear: the daemon buffers a prefix, we vanish.
      const std::size_t cut = agent.cut_point(frame.size());
      (void)send_all(std::string_view(frame).substr(0, cut));
      disconnect();
      ++stats_.truncations_injected;
      backoff(attempt);
      continue;
    }
    if (agent.stall_scheduled()) {
      // Slow-loris: half a frame, then silence past the daemon's
      // deadline.  If the daemon evicts us the tail send/read fails and
      // we retry; if its deadline is long enough, the call just succeeds.
      const std::size_t cut = agent.cut_point(frame.size());
      ++stats_.stalls_injected;
      delivered = send_all(std::string_view(frame).substr(0, cut));
      sleep_ms(agent.stall_ms());
      delivered =
          delivered && send_all(std::string_view(frame).substr(cut));
    } else {
      delivered = send_all(frame);
    }
    if (!delivered) {
      disconnect();
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }

    Frame response;
    if (!read_frame(response, id)) {
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }
    if (response.type == MessageType::kErrorResponse) {
      try {
        const ErrorResponse err = ErrorResponse::parse(response.payload);
        if (retryable_status(err.status)) {
          ++stats_.overloaded_retries;
          backoff(attempt);
          continue;
        }
      } catch (const ProtocolError&) {
        disconnect();
        ++stats_.io_failures;
        backoff(attempt);
        continue;
      }
    }

    // Completed: canonical request/response bytes enter the transcript.
    if (rtt_hist_ != nullptr) {
      rtt_hist_->observe_ns(obs::monotonic_ns() - rtt_begin_ns);
    }
    transcript_ += frame;
    transcript_ += frame_message(response.type, response.request_id,
                                 response.payload);
    ++stats_.calls;
    return response;
  }
  throw std::runtime_error(strformat(
      "fleet client: %s (request id %llu) failed after %d attempts",
      to_string(type), static_cast<unsigned long long>(id),
      config_.max_attempts));
}

namespace {

/// Unwrap a typed response or throw on a terminal error answer.
template <class Response>
Response unwrap(const Frame& frame, MessageType want) {
  if (frame.type == MessageType::kErrorResponse) {
    const ErrorResponse err = ErrorResponse::parse(frame.payload);
    throw std::runtime_error(std::string("fleet client: daemon error (") +
                             to_string(err.status) + "): " + err.message);
  }
  if (frame.type != want) {
    throw std::runtime_error(std::string("fleet client: expected ") +
                             to_string(want) + ", got " +
                             to_string(frame.type));
  }
  return Response::parse(frame.payload);
}

}  // namespace

bool Client::ping() {
  const Frame resp = call(MessageType::kPingRequest,
                          PingRequest{}.encode());
  return resp.type == MessageType::kPingResponse;
}

MarginResponse Client::margin(const MarginRequest& request) {
  return unwrap<MarginResponse>(
      call(MessageType::kMarginRequest, request.encode()),
      MessageType::kMarginResponse);
}

MarginBatchResponse Client::margin_batch(const MarginBatchRequest& request) {
  return unwrap<MarginBatchResponse>(
      call(MessageType::kMarginBatchRequest, request.encode()),
      MessageType::kMarginBatchResponse);
}

RejuvenationResponse Client::rejuvenation(const RejuvenationRequest& request) {
  return unwrap<RejuvenationResponse>(
      call(MessageType::kRejuvenationRequest, request.encode()),
      MessageType::kRejuvenationResponse);
}

ScheduleSleepResponse Client::schedule_sleep(ScheduleSleepRequest request) {
  request.client_id = config_.client_id;
  return unwrap<ScheduleSleepResponse>(
      call(MessageType::kScheduleSleepRequest, request.encode()),
      MessageType::kScheduleSleepResponse);
}

StatusResponse Client::status() {
  return unwrap<StatusResponse>(
      call(MessageType::kStatusRequest, StatusRequest{}.encode()),
      MessageType::kStatusResponse);
}

Frame Client::scrape(MessageType type, const std::string& payload) {
  // Volatile channel: same retry/backoff posture as call(), but no chaos
  // agent, no request_index_ consumed (chaos streams stay aligned
  // call-for-call), nothing appended to the transcript, and an id from
  // the tagged scrape space so transcripted ids never shift.
  const std::uint64_t id = next_scrape_id_++;
  const std::string frame = frame_message(type, id, payload);
  for (int attempt = 0; attempt < config_.max_attempts; ++attempt) {
    ++stats_.attempts;
    const std::uint64_t rtt_begin_ns =
        rtt_hist_ != nullptr ? obs::monotonic_ns() : 0;
    if (!ensure_connected()) {
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }
    if (!send_all(frame)) {
      disconnect();
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }
    Frame response;
    if (!read_frame(response, id)) {
      ++stats_.io_failures;
      backoff(attempt);
      continue;
    }
    if (response.type == MessageType::kErrorResponse) {
      try {
        const ErrorResponse err = ErrorResponse::parse(response.payload);
        if (retryable_status(err.status)) {
          ++stats_.overloaded_retries;
          backoff(attempt);
          continue;
        }
      } catch (const ProtocolError&) {
        disconnect();
        ++stats_.io_failures;
        backoff(attempt);
        continue;
      }
    }
    if (rtt_hist_ != nullptr) {
      rtt_hist_->observe_ns(obs::monotonic_ns() - rtt_begin_ns);
    }
    return response;
  }
  throw std::runtime_error(strformat(
      "fleet client: scrape %s (request id %llu) failed after %d attempts",
      to_string(type), static_cast<unsigned long long>(id),
      config_.max_attempts));
}

MetricsResponse Client::metrics(const std::string& prefix) {
  MetricsRequest request;
  request.prefix = prefix;
  return unwrap<MetricsResponse>(
      scrape(MessageType::kMetricsRequest, request.encode()),
      MessageType::kMetricsResponse);
}

}  // namespace ash::fleet
