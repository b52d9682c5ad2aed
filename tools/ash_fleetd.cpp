/// ash_fleetd — the resident fleet aging service.
///
/// Keeps the fleet substrate resident and answers queries over a
/// Unix-domain socket speaking the CRC-framed protocol of
/// ash/fleet/protocol.h (hostile-input-proof: truncated, oversized,
/// bit-flipped and garbage frames are rejected at the earliest byte that
/// proves them invalid, and the offending connection is dropped).
///
/// Modes:
///
///   ash_fleetd serve --socket PATH --state-dir DIR
///              [--campaign-dir DIR --shards N [--run-fleet --stages N]]
///              [--devices N] [--margin-mv F] [--seed N] [--queue N]
///              [--io-timeout-ms N] [--max-conns N] [--metrics FILE]
///              [--flight FILE] [--flight-capacity N] [--no-instrument]
///              [--trace FILE]
///     Run the daemon; on exit it prints the `fleet.service.` metrics it
///     published at drain.  --run-fleet first shards the paper campaign
///     across supervised worker processes (ash_fleet's machinery) so the
///     rejuvenation query has durable shard snapshots to rank; a --stages
///     no ring oscillator can have (even, or below 3) is refused first.
///     SIGTERM drains gracefully (final durable state snapshot); SIGKILL
///     is safe — the next start resumes from the newest valid snapshot
///     plus the journal's valid prefix, so every acknowledged mutation
///     survives.
///     --flight keeps a flight recorder whose dump survives a kill of the
///     daemon, not a power cut: it is rewritten (temp file + rename, no
///     fsync) after the acks of each poll tick that recorded an event, so
///     read-only traffic writes nothing; --trace streams request-path
///     spans as JSONL.
///
///   ash_fleetd query --socket PATH (ping|status|margin|rejuvenation|sleep)
///              [--device N] [--duty F] [--vdd F] [--temp F] [--horizon-h F]
///              [--start-s F] [--duration-s F] [--client N]
///     One-shot client call; prints the response payload.
///
///   ash_fleetd top --socket PATH [--interval-ms N] [--iterations N]
///              [--prefix STR]
///     Live dashboard: one metrics scrape per tick, rendered as a health
///     line (uptime, load, snapshot lag, built from the scrape's
///     `fleet.service.` values) and per-verb latency quantiles.  Scrapes
///     are volatile — watching a daemon never perturbs its durable state
///     or transcripts.
///
///   ash_fleetd stats --socket PATH [--prefix STR] [--json]
///     One scrape: the health line, then the metric lines; --json emits
///     {"metrics": {name: value, ...}} instead.
///
///   ash_fleetd flight --file PATH
///     Load and render a flight-recorder dump (tolerates torn tails from
///     SIGKILLed daemons — everything before the tear is shown).
///
///   ash_fleetd drill --dir DIR [--requests N] [--devices N] [--shards N]
///              [--stages N] [--seed N] [--chaos protocol] [--quiet]
///     The robustness acceptance drill (the CI chaos job runs this under
///     ASan+UBSan): run the same scripted client session twice — once
///     undisturbed, once under the protocol chaos preset (dropped
///     connections, mid-frame tears, stalled writes, daemon SIGKILL +
///     restart between requests) — and require the two transcripts to be
///     byte-identical.  Both sessions interleave metrics scrapes
///     mid-session, pinning that observation does not perturb the
///     transcript.  Exit 0 on identical transcripts, 1 otherwise.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ash/fleet/client.h"
#include "ash/fleet/service.h"
#include "ash/fleet/supervisor.h"
#include "ash/obs/flight_recorder.h"
#include "ash/obs/metrics.h"
#include "ash/obs/trace.h"
#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"
#include "ash/util/flags.h"
#include "ash/util/syscall.h"
#include "ash/util/table.h"

namespace {

using namespace ash;

int usage() {
  std::fprintf(
      stderr,
      "usage: ash_fleetd serve --socket PATH --state-dir DIR\n"
      "                  [--campaign-dir DIR --shards N [--run-fleet "
      "--stages N]]\n"
      "                  [--devices N] [--margin-mv F] [--seed N] "
      "[--queue N]\n"
      "                  [--io-timeout-ms N] [--max-conns N] "
      "[--metrics FILE]\n"
      "                  [--flight FILE] [--flight-capacity N] "
      "[--no-instrument]\n"
      "                  [--trace FILE]\n"
      "                  (prints its fleet.service. metrics on exit)\n"
      "                  (--flight: dump written after the ack, only when "
      "changed;\n"
      "                  survives a kill, not a power cut)\n"
      "                  (resumes from the newest valid snapshot in the "
      "state dir\n"
      "                  plus the journal's valid prefix)\n"
      "       ash_fleetd query --socket PATH "
      "(ping|status|margin|rejuvenation|sleep)\n"
      "                  [--device N] [--duty F] [--vdd F] [--temp F] "
      "[--horizon-h F]\n"
      "                  [--start-s F] [--duration-s F] [--client N]\n"
      "       ash_fleetd top --socket PATH [--interval-ms N] "
      "[--iterations N] [--prefix STR]\n"
      "       ash_fleetd stats --socket PATH [--prefix STR] [--json]\n"
      "                  (one metrics scrape per tick; the health line is "
      "built from\n"
      "                  its fleet.service. values)\n"
      "       ash_fleetd flight --file PATH\n"
      "       ash_fleetd drill --dir DIR [--requests N] [--devices N]\n"
      "                  [--shards N] [--stages N] [--seed N] "
      "[--chaos protocol] [--quiet]\n");
  return 2;
}

/// Make DIR/name, failing loudly.
std::string make_subdir(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name;
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    throw std::runtime_error("cannot create directory " + path + ": " +
                             ec.message());
  }
  return path;
}

/// Run the paper campaign sharded across supervised processes so the
/// rejuvenation query has durable snapshots to rank.
void run_fleet_campaign(const std::string& campaign_dir, int shards,
                        int stages, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.checkpoint_dir = campaign_dir;
  config.backoff_initial_ms = 1;
  config.backoff_max_ms = 50;
  fleet::FleetSupervisor supervisor(
      config, fleet::paper_fleet_shards(shards, seed, stages));
  const fleet::FleetReport report = supervisor.run();
  const auto incomplete =
      std::count_if(report.shards.begin(), report.shards.end(),
                    [](const fleet::ShardOutcome& s) { return !s.completed; });
  if (incomplete > 0) {
    std::fprintf(stderr, "ash_fleetd: warning: campaign left %td shard(s) "
                         "incomplete; serving anyway\n",
                 incomplete);
  }
}

int run_serve(const Flags& flags) {
  fleet::ServiceConfig config;
  config.socket_path = flags.get("socket", std::string());
  config.state_dir = flags.get("state-dir", std::string());
  config.campaign_dir = flags.get("campaign-dir", std::string());
  config.shard_count = flags.get("shards", 0);
  config.devices =
      static_cast<std::uint64_t>(flags.get("devices", 64));
  config.margin = Volts{flags.get("margin-mv", 12.0) * 1e-3};
  if (flags.has("seed")) {
    config.seed = static_cast<std::uint64_t>(flags.get("seed", 0));
  }
  config.max_request_queue = flags.get("queue", 8);
  config.io_timeout_ms = flags.get("io-timeout-ms", 2000);
  config.max_connections = flags.get("max-conns", 64);
  config.metrics_path = flags.get("metrics", std::string());
  config.instrument = !flags.get("no-instrument", false);
  config.flight_recorder_path = flags.get("flight", std::string());
  config.flight_recorder_capacity =
      static_cast<std::size_t>(flags.get("flight-capacity", 256));
  if (config.socket_path.empty() || config.state_dir.empty()) {
    std::fprintf(stderr, "ash_fleetd: serve needs --socket and --state-dir\n");
    return usage();
  }
  if (!util::writable_directory(config.state_dir)) {
    std::fprintf(stderr, "ash_fleetd: --state-dir %s: not an existing "
                         "writable directory\n",
                 config.state_dir.c_str());
    return usage();
  }
  if (flags.get("run-fleet", false)) {
    if (config.campaign_dir.empty() || config.shard_count < 1) {
      std::fprintf(stderr,
                   "ash_fleetd: --run-fleet needs --campaign-dir and "
                   "--shards\n");
      return usage();
    }
    run_fleet_campaign(config.campaign_dir, config.shard_count,
                       flags.get("stages", 11),
                       static_cast<std::uint64_t>(flags.get("seed", 0x40A0)));
  }
  std::unique_ptr<obs::TraceWriter> trace_writer;
  const std::string trace_path = flags.get("trace", std::string());
  if (!trace_path.empty()) {
    trace_writer = std::make_unique<obs::TraceWriter>(trace_path);
    if (!trace_writer->ok()) {
      std::fprintf(stderr, "ash_fleetd: cannot write trace to %s\n",
                   trace_path.c_str());
      return 2;
    }
    obs::set_trace_sink(trace_writer.get());
  }
  fleet::Service service(config);
  std::printf("ash_fleetd: serving %llu devices on %s (sequence %llu)\n",
              static_cast<unsigned long long>(service.state().devices.size()),
              config.socket_path.c_str(),
              static_cast<unsigned long long>(service.state().sequence));
  std::fflush(stdout);
  service.run();
  const auto published = obs::registry().snapshot().filtered("fleet.service.");
  std::printf("%s", published.render().c_str());
  if (trace_writer) {
    obs::set_trace_sink(nullptr);
    trace_writer->flush();
  }
  return 0;
}

int run_query(const Flags& flags) {
  const std::string socket_path = flags.get("socket", std::string());
  if (socket_path.empty() || flags.positional().size() != 2) {
    std::fprintf(stderr,
                 "ash_fleetd: query needs --socket and one verb\n");
    return usage();
  }
  fleet::ClientConfig cc;
  cc.socket_path = socket_path;
  cc.client_id = static_cast<std::uint64_t>(flags.get("client", 1));
  fleet::Client client(cc);
  const std::string& verb = flags.positional()[1];
  if (verb == "ping") {
    std::printf("pong: %s\n", client.ping() ? "yes" : "no");
  } else if (verb == "status") {
    const auto resp = client.status();
    std::printf("devices %llu windows %llu sequence %llu draining %d\n",
                static_cast<unsigned long long>(resp.devices),
                static_cast<unsigned long long>(resp.windows),
                static_cast<unsigned long long>(resp.sequence),
                resp.draining ? 1 : 0);
  } else if (verb == "margin") {
    fleet::MarginRequest req;
    req.device_id = static_cast<std::uint64_t>(flags.get("device", 0));
    req.duty = flags.get("duty", 0.5);
    req.vdd = Volts{flags.get("vdd", 1.2)};
    req.temp = Celsius{flags.get("temp", 80.0)};
    req.horizon = units::hours(flags.get("horizon-h", 87660.0));
    const auto resp = client.margin(req);
    if (resp.crosses) {
      std::printf("crosses in %.6g h (delta_vth %.4g mV of %.4g mV)\n",
                  resp.time_to_margin.value() / 3600.0,
                  resp.delta_vth.value() * 1e3, resp.margin.value() * 1e3);
    } else {
      std::printf("holds through the %.6g h horizon (delta_vth %.4g mV of "
                  "%.4g mV)\n",
                  req.horizon.value() / 3600.0, resp.delta_vth.value() * 1e3,
                  resp.margin.value() * 1e3);
    }
  } else if (verb == "rejuvenation") {
    const auto resp = client.rejuvenation(fleet::RejuvenationRequest{});
    if (resp.any) {
      std::printf("shard %d (fractional degradation %.6g)\n", resp.shard_id,
                  resp.degradation);
    } else {
      std::printf("no shard has a rankable snapshot\n");
    }
  } else if (verb == "sleep") {
    fleet::ScheduleSleepRequest req;
    req.device_id = static_cast<std::uint64_t>(flags.get("device", 0));
    req.start = Seconds{flags.get("start-s", 0.0)};
    req.duration = Seconds{flags.get("duration-s", 6.0 * 3600.0)};
    const auto resp = client.schedule_sleep(req);
    std::printf("booked: device %llu now has %llu window(s)\n",
                static_cast<unsigned long long>(req.device_id),
                static_cast<unsigned long long>(resp.windows));
  } else {
    std::fprintf(stderr, "ash_fleetd: unknown query verb '%s'\n",
                 verb.c_str());
    return usage();
  }
  return 0;
}

void sleep_ms(int ms) {
  if (ms <= 0) return;
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  (void)util::retry_eintr([&] { return ::nanosleep(&ts, &ts); });
}

/// Parse `key=value` metric lines (MetricsSnapshot::write format) into a
/// name-sorted map.  Unparseable lines are skipped, not fatal — the
/// dashboard degrades, it never crashes on a daemon newer than itself.
std::map<std::string, double> parse_metric_lines(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;
    const std::string value(line.substr(eq + 1));
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    out.emplace(std::string(line.substr(0, eq)), parsed);
  }
  return out;
}

/// The daemon's liveness at a glance, from the `fleet.service.` values of
/// one scrape; a value the scrape's prefix filtered out shows as "-".
std::string health_line(const std::map<std::string, double>& m) {
  const auto value = [&m](const char* name) {
    const auto it = m.find(std::string("fleet.service.") + name);
    return it == m.end() ? std::string("-") : strformat("%.0f", it->second);
  };
  const auto draining = m.find("fleet.service.health.draining");
  return "health: polls " + value("health.poll_iterations") + " conns " +
         value("health.connections") + " (hw " +
         value("health.connections_high_water") + ") queue-hw " +
         value("health.queue_depth_high_water") + " requests " +
         value("requests") + " shed " + value("shed") + " snapshot-lag " +
         value("health.snapshot_lag") +
         (draining != m.end() && draining->second != 0.0 ? " DRAINING\n"
                                                          : "\n");
}

/// Histogram rows of a metric map: every `<base>.count` with a matching
/// `<base>.sum` is a histogram (quantile keys exist only when non-empty).
std::string render_latency_table(const std::map<std::string, double>& m) {
  std::string out;
  for (const auto& [name, value] : m) {
    constexpr std::string_view kCount = ".count";
    if (name.size() <= kCount.size() ||
        name.compare(name.size() - kCount.size(), kCount.size(), kCount) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - kCount.size());
    if (m.find(base + ".sum") == m.end()) continue;
    const auto quantile = [&](const char* q) {
      const auto it = m.find(base + q);
      return it == m.end() ? std::string("-")
                           : strformat("%.3g", it->second);
    };
    out += strformat("  %-36s %10llu %10s %10s %10s\n", base.c_str(),
                           static_cast<unsigned long long>(value),
                           quantile(".p50").c_str(), quantile(".p95").c_str(),
                           quantile(".p99").c_str());
  }
  if (!out.empty()) {
    out = strformat("  %-36s %10s %10s %10s %10s\n", "histogram",
                          "count", "p50", "p95", "p99") +
          out;
  }
  return out;
}

int run_top(const Flags& flags) {
  const std::string socket_path = flags.get("socket", std::string());
  if (socket_path.empty()) {
    std::fprintf(stderr, "ash_fleetd: top needs --socket\n");
    return usage();
  }
  const int interval_ms = flags.get("interval-ms", 500);
  const int iterations = flags.get("iterations", 0);  // 0 = forever
  const std::string prefix = flags.get("prefix", std::string("fleet."));
  fleet::ClientConfig cc;
  cc.socket_path = socket_path;
  cc.client_id = 0xA5;  // dashboards are clients too, just volatile ones
  fleet::Client client(cc);
  for (int i = 0; iterations <= 0 || i < iterations; ++i) {
    const auto values = parse_metric_lines(client.metrics(prefix).text);
    std::printf("── ash_fleetd top · tick %d ──\n", i + 1);
    std::printf("%s", health_line(values).c_str());
    std::printf("%s", render_latency_table(values).c_str());
    std::fflush(stdout);
    if (iterations > 0 && i + 1 >= iterations) break;
    sleep_ms(interval_ms);
  }
  return 0;
}

/// JSON string escape for metric names (conservative).
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strformat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

int run_stats(const Flags& flags) {
  const std::string socket_path = flags.get("socket", std::string());
  if (socket_path.empty()) {
    std::fprintf(stderr, "ash_fleetd: stats needs --socket\n");
    return usage();
  }
  const std::string prefix = flags.get("prefix", std::string("fleet."));
  fleet::ClientConfig cc;
  cc.socket_path = socket_path;
  cc.client_id = 0xA5;
  fleet::Client client(cc);
  const std::string text = client.metrics(prefix).text;
  const auto values = parse_metric_lines(text);
  if (!flags.get("json", false)) {
    std::printf("%s", health_line(values).c_str());
    std::printf("%s", text.c_str());
    return 0;
  }
  std::string out = "{\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    out += std::isfinite(value) ? strformat("%.17g", value)
                                : std::string("null");
  }
  out += "}}\n";
  std::printf("%s", out.c_str());
  return 0;
}

int run_flight(const Flags& flags) {
  const std::string file = flags.get("file", std::string());
  if (file.empty()) {
    std::fprintf(stderr, "ash_fleetd: flight needs --file\n");
    return usage();
  }
  const std::string bytes = util::read_file(file);
  const auto events = obs::FlightRecorder::load(bytes);
  std::printf("%s", obs::FlightRecorder::render(events).c_str());
  return 0;
}

/// The scripted query/mutation mix both drill sessions replay.
std::string run_session(fleet::ForkedDaemon& daemon, const std::string& socket_path,
                        const fleet::FleetFaultPlan& chaos, int requests,
                        int devices, bool quiet) {
  fleet::ClientConfig cc;
  cc.socket_path = socket_path;
  cc.client_id = 42;
  cc.chaos = chaos;
  cc.kill_daemon = [&daemon] { daemon.kill_and_restart(); };
  fleet::Client client(cc);
  for (int i = 0; i < requests; ++i) {
    const auto device = static_cast<std::uint64_t>(i % devices);
    switch (i % 5) {
      case 0:
        (void)client.status();
        break;
      case 1: {
        fleet::MarginRequest req;
        req.device_id = device;
        req.duty = 0.25 * (1 + i % 3);
        (void)client.margin(req);
        break;
      }
      case 2: {
        fleet::ScheduleSleepRequest req;
        req.device_id = device;
        req.start = Seconds{3600.0 * i};
        req.duration = units::hours(6.0);
        (void)client.schedule_sleep(req);
        break;
      }
      case 3:
        (void)client.rejuvenation(fleet::RejuvenationRequest{});
        break;
      default:
        (void)client.ping();
        break;
    }
    // Volatile scrapes interleaved mid-session, identically in the clean
    // and chaos runs: watching the daemon must never show up in the
    // transcript, and the identity gate pins exactly that.
    if (i % 3 == 2) (void)client.metrics("fleet.service.");
  }
  (void)client.status();  // final durable-state fingerprint
  if (!quiet) std::printf("%s", client.stats().render().c_str());
  return client.transcript();
}

int run_drill(const Flags& flags) {
  const std::string dir = flags.get("dir", std::string());
  if (dir.empty() || !util::writable_directory(dir)) {
    std::fprintf(stderr,
                 "ash_fleetd: drill needs --dir (existing writable)\n");
    return usage();
  }
  const int requests = flags.get("requests", 20);
  const int devices = flags.get("devices", 8);
  const int shards = flags.get("shards", 2);
  const int stages = flags.get("stages", 5);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 0x40A0));
  const bool quiet = flags.get("quiet", false);
  const fleet::FleetFaultPlan chaos =
      fleet::FleetFaultPlan::by_name(flags.get("chaos",
                                               std::string("protocol")));

  std::string transcripts[2];
  const char* names[2] = {"clean", "chaos"};
  for (int session = 0; session < 2; ++session) {
    const std::string root = make_subdir(dir, names[session]);
    fleet::ServiceConfig config;
    config.socket_path = root + "/fleetd.sock";
    config.state_dir = make_subdir(root, "state");
    config.campaign_dir = make_subdir(root, "campaign");
    config.shard_count = shards;
    config.devices = static_cast<std::uint64_t>(devices);
    config.seed = seed;
    // Tight I/O deadline so the chaos stall (400 ms) triggers a real
    // slow-loris eviction; honest requests never park that long.
    config.io_timeout_ms = 150;
    // Telemetry artifacts: when the drill fails (or is SIGKILLed by the
    // chaos plan mid-write), these are what CI uploads for diagnosis.
    config.metrics_path = root + "/metrics.txt";
    config.flight_recorder_path = root + "/flight.txt";
    run_fleet_campaign(config.campaign_dir, shards, stages, seed);
    fleet::ForkedDaemon daemon(config);
    daemon.start();
    transcripts[session] = run_session(
        daemon, config.socket_path,
        session == 0 ? fleet::FleetFaultPlan::none() : chaos, requests,
        devices, quiet);
    const int exit_status = daemon.terminate();
    if (exit_status != 0) {
      std::fprintf(stderr, "ash_fleetd: %s daemon exited %d\n",
                   names[session], exit_status);
      return 1;
    }
  }

  const bool identical = transcripts[0] == transcripts[1];
  std::printf("clean transcript: %zu bytes crc32 %08x\n",
              transcripts[0].size(), util::crc32(transcripts[0]));
  std::printf("chaos transcript: %zu bytes crc32 %08x\n",
              transcripts[1].size(), util::crc32(transcripts[1]));
  std::printf("transcripts %s\n",
              identical ? "identical" : "DIVERGED");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    flags.check_known(
        {"socket", "state-dir", "campaign-dir", "shards", "run-fleet",
         "stages", "devices", "margin-mv", "seed", "queue", "io-timeout-ms",
         "max-conns", "metrics", "device", "duty", "vdd", "temp", "horizon-h",
         "start-s", "duration-s", "client", "dir", "requests", "chaos",
         "quiet", "flight", "flight-capacity", "no-instrument", "trace",
         "interval-ms", "iterations", "prefix", "json", "file"});
    if (flags.positional().empty()) return usage();
    const std::string& mode = flags.positional()[0];
    if (mode == "serve") return run_serve(flags);
    if (mode == "query") return run_query(flags);
    if (mode == "top") return run_top(flags);
    if (mode == "stats") return run_stats(flags);
    if (mode == "flight") return run_flight(flags);
    if (mode == "drill") return run_drill(flags);
    std::fprintf(stderr, "ash_fleetd: unknown mode '%s'\n", mode.c_str());
    return usage();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ash_fleetd: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ash_fleetd: %s\n", e.what());
    return 2;
  }
}
