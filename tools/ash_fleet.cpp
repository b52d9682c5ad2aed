/// ash_fleet — supervised multi-process fleet runner.
///
/// Shards the paper's five-chip campaign (extended cyclically) across
/// forked worker processes, each advancing its shard phase by phase with a
/// durable CRC-framed checkpoint after every phase.  The supervisor
/// restarts crashed or hung workers from the newest snapshot that still
/// verifies (capped exponential backoff, quarantine after --max-restarts
/// strikes) and ships a fleet report either way.
///
///   ash_fleet --dir DIR [--shards 5] [--stages 75] [--seed N]
///             [--phases-per-ckpt 1] [--max-restarts 3]
///             [--heartbeat-ms 5000] [--backoff-ms 10] [--backoff-max-ms 500]
///             [--chaos none|kill|torn|full] [--chaos-seed N]
///             [--payload FILE] [--metrics FILE] [--quiet]
///
/// --dir must name an existing writable directory; it holds the durable
/// snapshots and is how a re-run of the same command resumes after a kill
/// of the whole fleet (ctrl-C included).  --chaos injects the named
/// process-fault scenario into the workers themselves (SIGKILL mid-run,
/// heartbeat stalls, snapshot corruption) — the supervisor cannot tell
/// injected chaos from real failures, which is the point.
///
/// The report's *payload* (per-shard completion, fault tallies, sample
/// logs) is deterministic in (--shards, --stages, --seed, chaos plan); the
/// printed payload CRC is the one-line fingerprint two runs can compare.
/// Exit status: 0 all shards completed, 1 some shard quarantined, 2 usage.
/// The kernels run in the forked workers, out of this process's sight, so
/// there is no kernel profile here: `ash_lab campaign --profile` times the
/// same chips in-process.

#include <cstdio>
#include <string>

#include "ash/fleet/supervisor.h"
#include "ash/obs/metrics.h"
#include "ash/util/atomic_file.h"
#include "ash/util/flags.h"

namespace {

using namespace ash;

int usage() {
  std::fprintf(
      stderr,
      "usage: ash_fleet --dir DIR [--shards N] [--stages N] [--seed N]\n"
      "                 [--phases-per-ckpt N] [--max-restarts N]\n"
      "                 [--heartbeat-ms N] [--backoff-ms N] "
      "[--backoff-max-ms N]\n"
      "                 [--chaos none|kill|torn|full] [--chaos-seed N]\n"
      "                 [--payload FILE] [--metrics FILE] [--quiet]\n"
      "--dir must be an existing writable directory (holds durable "
      "snapshots)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc, argv);
    flags.check_known({"dir", "shards", "stages", "seed", "phases-per-ckpt",
                       "max-restarts", "heartbeat-ms", "backoff-ms",
                       "backoff-max-ms", "chaos", "chaos-seed", "payload",
                       "metrics", "quiet"});
    if (!flags.positional().empty()) return usage();

    const std::string dir = flags.get("dir", std::string());
    if (dir.empty()) {
      std::fprintf(stderr, "ash_fleet: --dir is required\n");
      return usage();
    }
    if (!util::writable_directory(dir)) {
      std::fprintf(stderr,
                   "ash_fleet: --dir %s: not an existing writable directory\n",
                   dir.c_str());
      return usage();
    }

    fleet::FleetConfig config;
    config.checkpoint_dir = dir;
    config.phases_per_checkpoint = flags.get("phases-per-ckpt", 1);
    config.max_restarts = flags.get("max-restarts", 3);
    config.heartbeat_timeout_ms = flags.get("heartbeat-ms", 5000);
    config.backoff_initial_ms = flags.get("backoff-ms", 10);
    config.backoff_max_ms = flags.get("backoff-max-ms", 500);
    config.chaos =
        fleet::FleetFaultPlan::by_name(flags.get("chaos", std::string("none")));
    if (flags.has("chaos-seed")) {
      config.chaos.seed = static_cast<std::uint64_t>(
          flags.get("chaos-seed", 0));
    }

    const auto shards = fleet::paper_fleet_shards(
        flags.get("shards", 5),
        static_cast<std::uint64_t>(flags.get("seed", 0x40A0)),
        flags.get("stages", 75));

    fleet::FleetSupervisor supervisor(config, shards);
    const fleet::FleetReport report = supervisor.run();

    if (!flags.get("quiet", false)) {
      std::printf("%s", report.render().c_str());
    }
    std::printf("payload crc32 %08x (%zu bytes, %zu shards)\n",
                report.payload_crc(), report.payload().size(),
                report.shards.size());

    const std::string payload_path = flags.get("payload", std::string());
    if (!payload_path.empty()) {
      util::atomic_write_file(payload_path, report.payload());
      std::printf("payload written to %s\n", payload_path.c_str());
    }
    const std::string metrics_path = flags.get("metrics", std::string());
    if (!metrics_path.empty()) {
      report.stats.publish(obs::registry());
      // Atomic (tmp + rename): a reader polling the file mid-write — or a
      // run killed here — must never observe a half-written snapshot.
      util::atomic_write_file(metrics_path,
                              obs::registry().snapshot().render());
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
    return report.all_completed() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ash_fleet: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ash_fleet: %s\n", e.what());
    return 2;
  }
}
