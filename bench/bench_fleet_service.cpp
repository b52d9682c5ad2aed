/// bench_fleet_service — what request-path telemetry and mutations cost.
///
/// Forks an `ash_fleetd` daemon twice — instrumented (per-verb latency and
/// queue-wait histograms, flight recorder on) and bare (no clock reads on
/// the request path) — and drives the same status/margin/ping mix through
/// a retrying client.  Reports throughput and client-observed round-trip
/// quantiles side by side: the instrumented column is the price of
/// watching the daemon, and it should be noise against socket I/O.
///
/// Then it books schedule_sleep mutations against instrumented daemons of
/// 16 and 10^5 devices and reports mutation p50/p99 and the bytes left in
/// the state directory after the drain: with the write-ahead journal a
/// mutation costs one small append, so p50 should not grow with the fleet.
///
/// Exits 1 when a scenario drops calls or a daemon's SIGTERM drain does not
/// exit with status 0.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ash/fleet/client.h"
#include "ash/fleet/service.h"
#include "ash/obs/metrics.h"
#include "ash/util/table.h"

namespace {

using namespace ash;

constexpr int kCalls = 2000;
constexpr int kMutations = 1000;

struct ScenarioRow {
  std::string name;
  double wall_s = 0.0;
  std::uint64_t calls = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int drain_status = -1;  ///< the daemon's SIGTERM exit status; 0 = drained
};

struct MutationRow {
  std::uint64_t devices = 0;
  std::uint64_t calls = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uintmax_t state_bytes = 0;
  int drain_status = -1;  ///< the daemon's SIGTERM exit status; 0 = drained
};

void make_dir(const std::string& path) {
  const std::string cmd = "mkdir -p '" + path + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", path.c_str());
    std::exit(1);
  }
}

fleet::ServiceConfig daemon_config(const std::string& dir, bool instrument,
                                   std::uint64_t devices) {
  make_dir(dir + "/state");
  fleet::ServiceConfig config;
  config.socket_path = dir + "/fleetd.sock";
  config.state_dir = dir + "/state";
  config.devices = devices;
  config.seed = 0x40A0;
  config.instrument = instrument;
  config.flight_recorder_capacity = instrument ? 256 : 0;
  if (instrument) config.flight_recorder_path = dir + "/flight.txt";
  return config;
}

ScenarioRow run_scenario(const std::string& name, const std::string& root,
                         bool instrument) {
  const fleet::ServiceConfig config =
      daemon_config(root + "/" + name, instrument, 16);
  fleet::ForkedDaemon daemon(config);
  daemon.start();

  ScenarioRow row;
  row.name = name;
  {
    fleet::ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 7;
    fleet::Client client(cc);
    (void)client.ping();  // connect + daemon warm-up outside the clock
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kCalls; ++i) {
      switch (i % 3) {
        case 0:
          (void)client.status();
          break;
        case 1: {
          fleet::MarginRequest req;
          req.device_id = static_cast<std::uint64_t>(i % 16);
          req.duty = 0.5;
          (void)client.margin(req);
          break;
        }
        default:
          (void)client.ping();
          break;
      }
    }
    row.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    row.calls = client.stats().calls;
  }

  row.drain_status = daemon.terminate();

  const auto snapshot = obs::registry().snapshot();
  for (const auto& h : snapshot.histograms) {
    if (h.name == "fleet.client.rtt_s") {
      row.p50_ms = h.quantile_ns(0.50) * 1e-6;
      row.p95_ms = h.quantile_ns(0.95) * 1e-6;
      row.p99_ms = h.quantile_ns(0.99) * 1e-6;
    }
  }
  obs::registry().clear();  // fresh rtt histogram for the next scenario
  return row;
}

/// kMutations schedule_sleep calls, each a new (client, request) on a
/// different device, timed one by one at the client.
MutationRow run_mutations(const std::string& root, std::uint64_t devices) {
  const fleet::ServiceConfig config = daemon_config(
      root + "/sleep-" + std::to_string(devices), true, devices);
  fleet::ForkedDaemon daemon(config);
  daemon.start();

  MutationRow row;
  row.devices = devices;
  std::vector<double> ms;
  {
    fleet::ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 7;
    fleet::Client client(cc);
    (void)client.ping();  // connect + genesis outside the clock
    for (int i = 0; i < kMutations; ++i) {
      fleet::ScheduleSleepRequest req;
      req.client_id = cc.client_id;
      req.device_id = (static_cast<std::uint64_t>(i) * 7919) % devices;
      req.start = Seconds{3600.0 * i};
      req.duration = Seconds{3600.0 * (1 + i % 12)};
      const auto t0 = std::chrono::steady_clock::now();
      (void)client.schedule_sleep(req);
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
    row.calls = client.stats().calls - 1;
  }
  row.drain_status = daemon.terminate();
  obs::registry().clear();

  std::sort(ms.begin(), ms.end());
  row.p50_ms = ms[ms.size() / 2];
  row.p99_ms = ms[ms.size() * 99 / 100];
  for (const auto& entry :
       std::filesystem::directory_iterator(config.state_dir)) {
    row.state_bytes += entry.file_size();
  }
  return row;
}

}  // namespace

int main() {
  print_banner(
      "fleet service telemetry overhead and mutation cost",
      "instrumented vs bare request path, same client mix over the wire; "
      "schedule_sleep at 16 and 1e5 devices");

  char tmpl[] = "/tmp/ash_bench_fleetd_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string root = tmpl;

  const ScenarioRow rows[] = {
      run_scenario("instrumented", root, true),
      run_scenario("bare", root, false),
  };

  std::printf("\n%-14s %8s %10s %9s %9s %9s\n", "scenario", "calls", "req/s",
              "p50_ms", "p95_ms", "p99_ms");
  bool ok = true;
  for (const auto& row : rows) {
    ok = ok && row.calls == static_cast<std::uint64_t>(kCalls) + 1 &&
         row.drain_status == 0;
    std::printf("%-14s %8llu %10.0f %9.3f %9.3f %9.3f\n", row.name.c_str(),
                static_cast<unsigned long long>(row.calls),
                row.wall_s > 0.0 ? static_cast<double>(kCalls) / row.wall_s
                                 : 0.0,
                row.p50_ms, row.p95_ms, row.p99_ms);
  }

  if (ok) {
    std::printf("\nboth scenarios completed every call and drained; the "
                "delta is the telemetry bill\n");
  }

  const MutationRow sleeps[] = {run_mutations(root, 16),
                                run_mutations(root, 100000)};
  std::printf("\n%-14s %8s %8s %9s %9s %12s\n", "schedule_sleep", "devices",
              "calls", "p50_ms", "p99_ms", "state_bytes");
  for (const auto& row : sleeps) {
    ok = ok && row.calls == static_cast<std::uint64_t>(kMutations) &&
         row.drain_status == 0;
    std::printf("%-14s %8llu %8llu %9.3f %9.3f %12llu\n", "",
                static_cast<unsigned long long>(row.devices),
                static_cast<unsigned long long>(row.calls), row.p50_ms,
                row.p99_ms, static_cast<unsigned long long>(row.state_bytes));
  }
  std::printf("mutation p50 at 1e5 vs 16 devices: %.2fx (journal target: "
              "within 2x)\n",
              sleeps[1].p50_ms / sleeps[0].p50_ms);

  const std::string cleanup = "rm -rf '" + root + "'";
  if (std::system(cleanup.c_str()) != 0) {
    std::fprintf(stderr, "cleanup of %s failed\n", root.c_str());
  }
  if (!ok) {
    std::fprintf(stderr,
                 "\nFAIL: a scenario dropped calls or a daemon did not "
                 "drain with status 0\n");
    return 1;
  }
  return 0;
}
