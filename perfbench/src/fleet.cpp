/// fleet_16k_mixed — a forked fleet daemon at 16384 devices, flight
/// recorder on as operators run it, and one closed-loop client on one
/// connection.
///
/// Every block of 100 calls is a seeded shuffle of 90 `margin`, 4
/// `margin-batch` of 256 devices, 4 `status` and 2 `schedule_sleep`.  The
/// writes sit beside the reads so that a durability cost that grows with
/// the fleet shows in mutation latency while read latency has to hold;
/// 16384 devices make that cost visible while a run still takes seconds.
/// The same request sequence runs against several fresh daemons in turn,
/// so that every block is repeated on the same state.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ash/bti/closed_form.h"
#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/client.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/mc/margin.h"
#include "ash/obs/flight_recorder.h"
#include "ash/util/atomic_file.h"
#include "ash/util/constants.h"
#include "ash/util/crc32.h"
#include "ash/util/random.h"
#include "ash/util/syscall.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ash;
using fleet::MessageType;

constexpr std::uint64_t kDevices = 16384;
constexpr int kBatchDevices = 256;
constexpr std::uint64_t kClientId = 7;
constexpr std::size_t kBlockCalls = 100;

/// Request classes, in the order of kVerb.
enum Verb { kMargin = 0, kBatch = 1, kStatus = 2, kSleep = 3, kVerbs = 4 };
const char* const kVerbName[kVerbs] = {"margin", "margin_batch", "status",
                                       "schedule_sleep"};
const char* const kRttSpan[kVerbs] = {"fleet.client.margin",
                                      "fleet.client.margin_batch",
                                      "fleet.client.status",
                                      "fleet.client.schedule_sleep"};
const char* const kRespondSpan[kVerbs] = {
    "fleet.respond.margin", "fleet.respond.margin_batch",
    "fleet.respond.status", "fleet.respond.schedule_sleep"};
const MessageType kRequestType[kVerbs] = {
    MessageType::kMarginRequest, MessageType::kMarginBatchRequest,
    MessageType::kStatusRequest, MessageType::kScheduleSleepRequest};

struct Call {
  Verb verb = kMargin;
  std::string payload;
};

/// `blocks` blocks of 100 calls, each a seeded shuffle of the mix.
std::vector<Call> make_calls(std::uint64_t seed, int blocks) {
  Rng rng(derive_seed(seed, 0xF1EE7));
  std::vector<Call> calls;
  const auto mission = [&](auto& req) {
    req.duty = rng.uniform(0.05, 0.95);
    req.vdd = Volts{1.2};
    req.temp = Celsius{60.0 + 20.0 * static_cast<double>(rng.uniform_index(3))};
  };
  for (int b = 0; b < blocks; ++b) {
    std::vector<Verb> mix;
    mix.insert(mix.end(), 90, kMargin);
    mix.insert(mix.end(), 4, kBatch);
    mix.insert(mix.end(), 4, kStatus);
    mix.insert(mix.end(), 2, kSleep);
    for (std::size_t i = mix.size() - 1; i > 0; --i) {
      std::swap(mix[i], mix[rng.uniform_index(i + 1)]);
    }
    for (const Verb v : mix) {
      Call call;
      call.verb = v;
      if (v == kMargin) {
        fleet::MarginRequest req;
        req.device_id = rng.uniform_index(kDevices);
        mission(req);
        call.payload = req.encode();
      } else if (v == kBatch) {
        fleet::MarginBatchRequest req;
        for (int d = 0; d < kBatchDevices; ++d) {
          req.device_ids.push_back(rng.uniform_index(kDevices));
        }
        mission(req);
        call.payload = req.encode();
      } else if (v == kStatus) {
        call.payload = fleet::StatusRequest{}.encode();
      } else {
        fleet::ScheduleSleepRequest req;
        req.client_id = kClientId;
        req.device_id = rng.uniform_index(kDevices);
        req.start = Seconds{hours(rng.uniform(0.0, 720.0))};
        req.duration =
            Seconds{hours(1.0 + static_cast<double>(rng.uniform_index(12)))};
        call.payload = req.encode();
      }
      calls.push_back(std::move(call));
    }
  }
  return calls;
}

fleet::ServiceConfig service_config(std::uint64_t seed, const std::string& dir) {
  fleet::ServiceConfig config;
  config.socket_path = dir + "/d.sock";
  config.state_dir = dir + "/state";
  config.devices = kDevices;
  config.seed = derive_seed(seed, 0xDE5);
  config.instrument = true;
  config.flight_recorder_path = dir + "/flight.txt";
  return config;
}

void make_dirs(const std::string& dir) {
  std::filesystem::create_directories(dir + "/state");
}

/// A forked daemon and the one client connected to it.
struct Daemon {
  pid_t pid = -1;
  std::string dir;
  std::unique_ptr<fleet::Client> client;
};

/// Fork the daemon (genesis and first durable snapshot happen in its
/// constructor), wait for its socket, connect and ping.
Daemon start_daemon(const fleet::ServiceConfig& config, const std::string& dir) {
  Daemon d;
  d.dir = dir;
  d.pid = ::fork();
  if (d.pid < 0) throw std::runtime_error("fork failed");
  if (d.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    try {
      fleet::Service service(config);
      service.run();
      std::_Exit(0);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench daemon: %s\n", e.what());
      std::_Exit(3);
    }
  }
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  struct stat st {};
  while (::stat(config.socket_path.c_str(), &st) != 0) {
    int status = 0;
    if (::waitpid(d.pid, &status, WNOHANG) == d.pid) {
      throw std::runtime_error("daemon exited during start-up");
    }
    if (now_ns() > deadline) throw std::runtime_error("daemon never bound");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fleet::ClientConfig cc;
  cc.socket_path = config.socket_path;
  cc.client_id = kClientId;
  cc.instrument = false;
  d.client = std::make_unique<fleet::Client>(cc);
  if (!d.client->ping()) throw std::runtime_error("daemon ping failed");
  return d;
}

struct Stopped {
  double peak_rss_mb = 0.0;
  bool clean_exit = false;
};

/// SIGTERM (the daemon drains and exits 0), reap with its rusage, and
/// remove its directory.
Stopped stop_daemon(Daemon& d) {
  d.client.reset();
  Stopped s;
  ::kill(d.pid, SIGTERM);
  int status = 0;
  rusage ru{};
  (void)util::retry_eintr([&] { return ::wait4(d.pid, &status, 0, &ru); });
  s.clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  std::filesystem::remove_all(d.dir);
  return s;
}

/// What a correct daemon answers to the session, derived without
/// fleet::Service: each device's genesis prior by the rule ServiceState
/// documents, margins from single-device mc::margin_outlook calls (batch
/// rows too), and windows and sequence counted from the mutations sent.
struct Expected {
  /// One per call, then the final status.
  std::vector<fleet::Frame> responses;
  /// The bytes Client::transcript() must hold: ping, the calls, the final
  /// status, each request frame followed by its response frame.
  std::string transcript;
};

Expected expected_session(std::uint64_t seed, const std::vector<Call>& calls) {
  const fleet::ServiceConfig config = service_config(seed, "");
  const bti::ClosedFormModel model(config.physics);
  const auto outlook = [&](std::uint64_t device, const auto& req) {
    // Device i's prior: uniform in [0, 0.9 * margin] on derive_seed(seed, i).
    Rng rng(derive_seed(config.seed, device));
    mc::MarginQuery q;
    q.delta_vth = Volts{rng.uniform(0.0, 0.9 * config.margin.value())};
    q.margin = config.margin;
    q.duty = req.duty;
    q.vdd = req.vdd;
    q.temp = req.temp;
    q.horizon = req.horizon;
    return std::pair{q.delta_vth, mc::margin_outlook(model, q)};
  };
  std::map<std::uint64_t, std::uint64_t> windows;  // per device
  std::uint64_t mutations = 0;
  const auto status = [&] {
    fleet::StatusResponse resp;
    resp.devices = kDevices;
    resp.windows = mutations;
    resp.sequence = mutations;
    return resp.encode();
  };

  Expected e;
  std::uint64_t id = 1;
  const auto exchange = [&](MessageType type, const std::string& request,
                            std::string response) {
    const auto response_type =
        static_cast<MessageType>(static_cast<std::uint32_t>(type) + 1);
    e.transcript += fleet::frame_message(type, id, request);
    e.transcript += fleet::frame_message(response_type, id, response);
    e.responses.push_back(fleet::Frame{response_type, id, std::move(response)});
    ++id;
  };
  exchange(MessageType::kPingRequest, fleet::PingRequest{}.encode(),
           fleet::PingResponse{}.encode());
  e.responses.clear();  // the ping is answered during set-up
  for (const Call& call : calls) {
    std::string response;
    if (call.verb == kMargin) {
      const auto req = fleet::MarginRequest::parse(call.payload);
      const auto [delta_vth, o] = outlook(req.device_id, req);
      fleet::MarginResponse resp;
      resp.crosses = o.crosses;
      resp.time_to_margin = o.time_to_margin;
      resp.delta_vth = delta_vth;
      resp.margin = config.margin;
      response = resp.encode();
    } else if (call.verb == kBatch) {
      const auto req = fleet::MarginBatchRequest::parse(call.payload);
      fleet::MarginBatchResponse resp;
      resp.margin = config.margin;
      for (const std::uint64_t device : req.device_ids) {
        const auto [delta_vth, o] = outlook(device, req);
        resp.rows.push_back({device, o.crosses, o.time_to_margin, delta_vth});
      }
      response = resp.encode();
    } else if (call.verb == kStatus) {
      response = status();
    } else {
      const auto req = fleet::ScheduleSleepRequest::parse(call.payload);
      fleet::ScheduleSleepResponse resp;
      resp.newly_applied = true;
      resp.windows = ++windows[req.device_id];
      ++mutations;
      response = resp.encode();
    }
    exchange(kRequestType[call.verb], call.payload, std::move(response));
  }
  exchange(MessageType::kStatusRequest, fleet::StatusRequest{}.encode(), status());
  return e;
}

/// The request sequence against kSetupRepeats fresh daemons, one after the
/// other.  Every daemon set-up is a set-up sample.  Block b of every daemon
/// is a unit of kind b (its CPU is the client's plus the daemon's): the
/// same 100 calls on the same state, so a block's fastest repeat still pays
/// what lands on only some calls, such as the flight-ring flush every 64
/// poll iterations and the state size the mutations have grown.
struct Session {
  std::vector<double> setup_s;
  UnitTimes blocks;
  double peak_rss_mb = 0.0;
  std::vector<double> rtt_ms[kVerbs];
  std::uint64_t retries = 0;
  std::string daemon_metrics;  ///< "name=value" lines of the last daemon
};

/// Check every answer of one daemon, and its transcript, against `expected`.
void check_daemon(int daemon, const std::vector<Call>& calls,
                  const std::vector<fleet::Frame>& responses,
                  const std::string& transcript, const Expected& expected,
                  Checks& checks) {
  const std::string where = "daemon " + std::to_string(daemon) + ": ";
  checks.attempt(responses.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const fleet::Frame& want = expected.responses[i];
    const fleet::Frame& got = responses[i];
    const char* what = i < calls.size() ? kVerbName[calls[i].verb] : "final status";
    checks.expect(got.type == want.type && got.payload == want.payload,
                  where + "call " + std::to_string(i) + " (" + what +
                      ") answered otherwise than expected");
  }
  char text[96];
  std::snprintf(text, sizeof text, "transcript crc %08x, expected %08x",
                util::crc32(transcript), util::crc32(expected.transcript));
  checks.expect(util::crc32(transcript) == util::crc32(expected.transcript),
                where + text);
}

Session run_session(std::uint64_t seed, const std::vector<Call>& calls,
                    const Expected& expected, const std::string& root,
                    Tracer* tracer, bool scrape, Checks& checks) {
  Session s;
  const int blocks = static_cast<int>(calls.size() / kBlockCalls);
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    const std::string dir = root + "/daemon" + std::to_string(r);
    make_dirs(dir);
    Daemon d = start_daemon(service_config(seed, dir), dir);
    s.setup_s.push_back(seconds_since(t0));

    fleet::Client& client = *d.client;
    std::vector<fleet::Frame> responses;
    responses.reserve(calls.size() + 1);
    for (int b = 0; b < blocks; ++b) {
      const double cpu0 = process_cpu_s() + other_process_cpu_s(d.pid);
      const std::int64_t b0 = now_ns();
      for (std::size_t i = 0; i < kBlockCalls; ++i) {
        const Call& call = calls[static_cast<std::size_t>(b) * kBlockCalls + i];
        const std::int64_t c0 = now_ns();
        {
          const ScopedSpan span(tracer, kRttSpan[call.verb]);
          responses.push_back(client.call(kRequestType[call.verb], call.payload));
        }
        s.rtt_ms[call.verb].push_back(seconds_since(c0) * 1e3);
      }
      s.blocks.add(b, seconds_since(b0),
                   process_cpu_s() + other_process_cpu_s(d.pid) - cpu0);
    }
    responses.push_back(
        client.call(MessageType::kStatusRequest, fleet::StatusRequest{}.encode()));
    check_daemon(r, calls, responses, client.transcript(), expected, checks);
    s.retries += client.stats().attempts - client.stats().calls;
    if (scrape && r + 1 == kSetupRepeats) {
      s.daemon_metrics = client.metrics("fleet.service.").text;
    }
    const Stopped stopped = stop_daemon(d);
    checks.expect(stopped.clean_exit,
                  "daemon " + std::to_string(r) + " did not drain and exit 0");
    s.peak_rss_mb = std::max(s.peak_rss_mb, stopped.peak_rss_mb);
  }
  s.peak_rss_mb = std::max(s.peak_rss_mb, process_peak_rss_mb());
  return s;
}

/// The same request sequence answered by in-process Services from the same
/// genesis, as many as the wire session has daemons: the respond-side
/// spans, and the last Service for its end-of-run state.
std::unique_ptr<fleet::Service> replay(std::uint64_t seed,
                                       const std::vector<Call>& calls,
                                       const std::string& root, Tracer& tracer) {
  std::unique_ptr<fleet::Service> service;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::string dir = root + "/service" + std::to_string(r);
    make_dirs(dir);
    fleet::ServiceConfig config = service_config(seed, dir);
    config.instrument = false;
    config.flight_recorder_path.clear();
    service = std::make_unique<fleet::Service>(config);
    std::uint64_t id = 2;  // as on the wire, after the set-up ping
    for (const Call& call : calls) {
      const fleet::Frame request{kRequestType[call.verb], id++, call.payload};
      const ScopedSpan span(&tracer, kRespondSpan[call.verb]);
      (void)service->respond(request);
    }
  }
  return service;
}

/// "name=value" line of a scraped metrics text; 0 when absent.
double scraped(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.compare(0, name.size() + 1, name + "=") == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

double p50(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Layer timings outside the wire path: codec, margin projection, state
/// snapshot, checkpoint save, idempotency lookup, flight-ring write.
void measure_layers(const std::vector<Call>& calls, const fleet::Service& service,
                    const std::string& dir, Tracer& tracer, Result& result) {
  const bti::ClosedFormModel model(service.config().physics);
  const fleet::ServiceState& state = service.state();
  const auto query = [&](std::uint64_t device, const auto& req) {
    mc::MarginQuery q;
    q.delta_vth = state.devices[device].delta_vth;
    q.margin = state.margin;
    q.duty = req.duty;
    q.vdd = req.vdd;
    q.temp = req.temp;
    q.horizon = req.horizon;
    return q;
  };
  std::uint64_t id = 1;
  for (const Call& call : calls) {
    if (call.verb == kMargin) {
      const fleet::MarginRequest req = fleet::MarginRequest::parse(call.payload);
      {
        const ScopedSpan span(&tracer, "fleet.codec.margin");
        const std::string bytes =
            fleet::frame_message(MessageType::kMarginRequest, id++, req.encode());
        fleet::FrameReader reader;
        reader.feed(bytes);
        const auto frame = reader.next();
        if (!frame || fleet::MarginRequest::parse(frame->payload).device_id !=
                          req.device_id) {
          throw std::runtime_error("codec round trip lost a margin request");
        }
      }
      const mc::MarginQuery q = query(req.device_id, req);
      const ScopedSpan span(&tracer, "mc.margin_outlook");
      (void)mc::margin_outlook(model, q);
    } else if (call.verb == kBatch) {
      const auto req = fleet::MarginBatchRequest::parse(call.payload);
      std::vector<mc::MarginQuery> queries;
      for (const std::uint64_t dev : req.device_ids) queries.push_back(query(dev, req));
      const ScopedSpan span(&tracer, "mc.margin_outlook.batch");
      (void)mc::margin_outlook(model, queries);
    }
  }

  std::string payload;
  for (int i = 0; i < 21; ++i) {
    const ScopedSpan span(&tracer, "fleet.state.serialize");
    payload = state.serialize();
  }

  // 100 saves leave 10 beyond p90.
  const fleet::CheckpointStore store([&] {
    std::filesystem::create_directories(dir + "/saves");
    return dir + "/saves";
  }());
  for (int i = 0; i < 100; ++i) {
    {
      const ScopedSpan span(&tracer, "fleet.checkpoint.save");
      store.save(0, state.sequence + static_cast<std::uint64_t>(i), payload);
    }
    store.prune(0, 4);
  }

  // A new mutation's idempotency lookup misses, scanning the whole table.
  // Spans of 1000 lookups each, so the clock reads do not dominate.
  constexpr int kLookups = 1000;
  for (int r = 0; r < 51; ++r) {
    const ScopedSpan span(&tracer, "fleet.state.find_applied");
    for (int i = 0; i < kLookups; ++i) {
      if (state.find_applied(kClientId, ~std::uint64_t{0} - i) != nullptr) {
        throw std::runtime_error("find_applied hit an id never sent");
      }
    }
  }

  obs::FlightRecorder recorder(service.config().flight_recorder_capacity);
  for (std::size_t i = 0; i < 2 * recorder.capacity(); ++i) {
    recorder.record(obs::FlightEventKind::kMutationApplied, i, i);
  }
  const std::string ring = recorder.serialize();
  for (int i = 0; i < 31; ++i) {
    const ScopedSpan span(&tracer, "util.atomic_write.flight");
    util::atomic_write_file(dir + "/flight.txt", ring);
  }

  const std::vector<double> save_ns = tracer.self_ns_of("fleet.checkpoint.save");
  result.add("fleet.codec.margin.p50_ns", p50(tracer.self_ns_of("fleet.codec.margin")),
             "ns");
  result.add("mc.margin_outlook.p50_us",
             p50(tracer.self_ns_of("mc.margin_outlook")) * 1e-3, "us");
  result.add("mc.margin_outlook.batch_per_device_us",
             p50(tracer.self_ns_of("mc.margin_outlook.batch")) * 1e-3 / kBatchDevices,
             "us");
  result.add("fleet.state.serialize.p50_ms",
             p50(tracer.self_ns_of("fleet.state.serialize")) * 1e-6, "ms");
  result.add("fleet.state.bytes", static_cast<double>(payload.size()), "bytes");
  result.add("fleet.checkpoint.save.p50_ms", p50(save_ns) * 1e-6, "ms");
  result.add("fleet.checkpoint.save.p90_ms",
             checked_percentile(save_ns, 90.0, "fleet.checkpoint.save") * 1e-6, "ms");
  result.add("fleet.state.find_applied.p50_ns",
             p50(tracer.self_ns_of("fleet.state.find_applied")) / kLookups, "ns");
  result.add("fleet.state.applied_entries", static_cast<double>(state.applied.size()),
             "count");
  result.add("util.atomic_write.flight.p50_ms",
             p50(tracer.self_ns_of("util.atomic_write.flight")) * 1e-6, "ms");
}

}  // namespace

Result run_fleet_16k_mixed(const RunConfig& config) {
  Result result;
  // A block of 100 calls takes 40-90 ms on a 4-core x86 VM.  Six blocks a
  // daemon is the floor: 9 daemons x 12 mutations leave 10 beyond p90.
  const int blocks = std::max(6, config.seconds);
  const std::vector<Call> calls = make_calls(config.seed, blocks);
  const Expected expected = expected_session(config.seed, calls);
  const std::string root =
      work_dir() + "/fleet-" + std::to_string(::getpid());
  std::filesystem::remove_all(root);

  const Session wire = run_session(config.seed, calls, expected, root + "/wire",
                                   nullptr, config.trace, result.checks);
  const double read_p50 = p50(wire.rtt_ms[kMargin]);
  double busy_ms = 0.0;
  for (const auto& rtt : wire.rtt_ms) {
    for (const double ms : rtt) busy_ms += ms;
  }
  const double requests_per_s =
      static_cast<double>(calls.size() * kSetupRepeats) / (busy_ms * 1e-3);
  const double read_p99 =
      checked_percentile(wire.rtt_ms[kMargin], 99.0, "margin rtt");
  const double batch_p50 = p50(wire.rtt_ms[kBatch]);
  const double mutation_p50 = p50(wire.rtt_ms[kSleep]);
  const double mutation_p90 =
      checked_percentile(wire.rtt_ms[kSleep], 90.0, "schedule_sleep rtt");

  if (!config.trace) {
    result.add("setup_s", p50(wire.setup_s), "s");
    result.add("wall_s", wire.blocks.wall_s(), "s");
    result.add("cpu_s", wire.blocks.cpu_s(), "s");
    result.add("peak_rss_mb", wire.peak_rss_mb, "MB");
    result.note("requests_per_s", requests_per_s, "1/s");
    result.note("read_p50_ms", read_p50, "ms");
    result.note("read_p99_ms", read_p99, "ms");
    result.note("read.samples", static_cast<double>(wire.rtt_ms[kMargin].size()),
                "count");
    result.note("batch_p50_ms", batch_p50, "ms");
    result.note("mutation_p50_ms", mutation_p50, "ms");
    result.note("mutation_p90_ms", mutation_p90, "ms");
    result.note("mutation.samples",
                static_cast<double>(wire.rtt_ms[kSleep].size()), "count");
    result.note("setup.samples", static_cast<double>(wire.setup_s.size()), "count");
    std::filesystem::remove_all(root);
    return result;
  }

  Tracer tracer;
  const auto ref = replay(config.seed, calls, root + "/replay", tracer);
  const Session traced = run_session(config.seed, calls, expected,
                                     root + "/traced", &tracer, false,
                                     result.checks);
  measure_layers(calls, *ref, root + "/layers", tracer, result);

  result.add("requests_per_s", requests_per_s, "1/s");
  result.add("read_p50_ms", read_p50, "ms");
  result.add("read_p99_ms", read_p99, "ms");
  result.add("batch_p50_ms", batch_p50, "ms");
  result.add("mutation_p50_ms", mutation_p50, "ms");
  result.add("mutation_p90_ms", mutation_p90, "ms");
  for (int v = 0; v < kVerbs; ++v) {
    const std::vector<double> ns = tracer.self_ns_of(kRespondSpan[v]);
    result.add(std::string(kRespondSpan[v]) + ".p50_us", p50(ns) * 1e-3, "us");
    if (v == kSleep) {
      result.add(std::string(kRespondSpan[v]) + ".p90_us",
                 checked_percentile(ns, 90.0, kRespondSpan[v]) * 1e-3, "us");
    }
  }
  result.add("fleet.transport.margin.p50_us",
             (p50(tracer.self_ns_of(kRttSpan[kMargin])) -
              p50(tracer.self_ns_of(kRespondSpan[kMargin]))) *
                 1e-3,
             "us");
  for (const Verb v : {kMargin, kBatch, kSleep}) {
    const std::string src = std::string("fleet.service.latency.") + kVerbName[v];
    const std::string dst = std::string("fleet.daemon.") + kVerbName[v];
    result.add(dst + ".p50_us", scraped(wire.daemon_metrics, src + ".p50") * 1e6, "us");
    result.add(dst + ".p99_us", scraped(wire.daemon_metrics, src + ".p99") * 1e6, "us");
  }
  result.add("fleet.daemon.queue_wait.p99_us",
             scraped(wire.daemon_metrics, "fleet.service.queue_wait.p99") * 1e6, "us");
  result.add("fleet.client.retries", static_cast<double>(wire.retries + traced.retries),
             "count");
  result.add("obs.trace_overhead", traced.blocks.wall_s() / wire.blocks.wall_s(),
             "ratio");
  tracer.write_jsonl(work_dir() + "/trace-fleet_16k_mixed-seed" +
                     std::to_string(config.seed) + ".jsonl");
  std::filesystem::remove_all(root);
  return result;
}

std::string fleet_expected_transcript(std::uint64_t seed, int blocks) {
  return expected_session(seed, make_calls(seed, blocks)).transcript;
}

}  // namespace perfbench
