#include "ash/fleet/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ash/obs/clock.h"
#include "ash/obs/metrics.h"
#include "ash/obs/trace.h"
#include "ash/util/crc32.h"
#include "ash/util/syscall.h"
#include "ash/util/table.h"

namespace ash::fleet {

namespace {

/// Pipe protocol, worker -> supervisor: any byte refreshes the heartbeat
/// deadline; 'c' additionally reports one corrupt snapshot the worker had
/// to step over during recovery (the worker overwrites the bad file as it
/// re-advances, so the supervisor can't discover it later by itself).
void send_byte(int fd, char byte) {
  // A failed write (supervisor gone) is not the worker's problem; it will
  // be reaped either way — but EINTR (a signal mid-write) must not eat a
  // heartbeat, or a perfectly healthy worker looks hung.
  [[maybe_unused]] const ssize_t n =
      util::retry_eintr([&] { return ::write(fd, &byte, 1); });
}

void heartbeat(int fd) { send_byte(fd, 'h'); }

/// Worker body: advance the shard from its newest durable snapshot to
/// completion, checkpointing and heartbeating at every phase boundary and
/// faithfully enacting the chaos schedule for this attempt.  Never
/// returns; exits 0 when the campaign is complete.
[[noreturn]] void run_worker(const FleetConfig& config, const ShardSpec& spec,
                             int attempt, int heartbeat_fd) {
  // The child inherited the parent's trace sink; detach so two processes
  // never interleave writes into one file.
  obs::set_trace_sink(nullptr);
  try {
    const CheckpointStore store(config.checkpoint_dir);
    const FleetFaultAgent chaos(config.chaos, spec.shard_id, attempt);

    if (chaos.stall_scheduled()) {
      // Hang without heartbeating: the supervisor's deadline must fire.
      ::usleep(static_cast<useconds_t>(chaos.stall_ms() * 1000.0));
    }

    fpga::FpgaChip chip(spec.chip);
    tb::ExperimentRunner runner(config.runner);

    tb::CampaignCheckpoint ckpt;
    if (const auto newest = store.load_newest_valid(spec.shard_id)) {
      ckpt = tb::CampaignCheckpoint::deserialize(newest->payload);
      for (int i = 0; i < newest->corrupt_skipped; ++i) {
        send_byte(heartbeat_fd, 'c');
      }
    } else {
      ckpt = tb::initial_checkpoint(chip, spec.test_case, config.runner);
      // Seed the store with the phase-0 snapshot so even a shard that
      // never completes a phase quarantines with *valid* (empty) state,
      // and so a corrupted first real snapshot has something to fall
      // back to.
      store.save(spec.shard_id, 0, ckpt.serialize());
    }
    heartbeat(heartbeat_fd);

    int phases_this_attempt = 0;
    const int step = std::max(1, config.phases_per_checkpoint);
    for (;;) {
      const tb::CampaignResult result =
          runner.run_campaign(chip, spec.test_case, ckpt, step);
      const int advanced = result.checkpoint.next_phase - ckpt.next_phase;
      ckpt = result.checkpoint;
      const std::string path =
          store.save(spec.shard_id,
                     static_cast<std::uint64_t>(ckpt.next_phase),
                     ckpt.serialize());
      heartbeat(heartbeat_fd);
      phases_this_attempt += advanced;

      // A kill drawn beyond this shard's phase count fires at the
      // completion boundary instead: every scheduled kill really kills
      // (and every scheduled corruption really corrupts), even on a shard
      // whose campaign is shorter than the draw.
      if (chaos.kill_scheduled() &&
          (phases_this_attempt >= chaos.kill_after_phases() ||
           result.completed)) {
        if (chaos.corrupt_scheduled()) chaos.corrupt_file(path);
        ::raise(SIGKILL);
      }
      if (result.completed) _exit(0);
      if (advanced <= 0) _exit(4);  // no forward progress: config bug
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ash-fleet worker shard %d: %s\n", spec.shard_id,
                 e.what());
    _exit(3);
  }
  _exit(3);
}

/// Supervisor-side view of one shard.
struct Slot {
  enum class State { kRunning, kBackoff, kDone, kQuarantined };
  State state = State::kRunning;
  const ShardSpec* spec = nullptr;
  pid_t pid = -1;
  int fd = -1;
  int attempt = 0;  ///< attempt index currently (or next) running
  double last_beat_ms = 0.0;
  double restart_at_ms = 0.0;
  ShardOutcome outcome;
};

}  // namespace

const char* to_string(ShardQuality quality) {
  switch (quality) {
    case ShardQuality::kClean: return "clean";
    case ShardQuality::kRecovered: return "recovered";
    case ShardQuality::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string SupervisionStats::render() const {
  std::ostringstream os;
  os << "fleet supervision:\n";
  os << "  workers launched      " << workers_launched << "\n";
  os << "  worker crashes        " << worker_crashes << "\n";
  os << "  heartbeat timeouts    " << heartbeat_timeouts << "\n";
  os << "  restarts              " << restarts << "\n";
  os << "  backoffs              " << backoffs << " (total "
     << fmt_fixed(backoff_total_ms, 0) << " ms)\n";
  os << "  quarantined shards    " << quarantined << "\n";
  os << "  corrupt snapshots     " << corrupt_snapshots_skipped
     << " skipped\n";
  return os.str();
}

void SupervisionStats::publish(obs::Registry& registry,
                               const std::string& prefix) const {
  const auto set = [&](const char* name, int value) {
    registry.counter(prefix + name).set(static_cast<std::uint64_t>(value));
  };
  set("workers_launched", workers_launched);
  set("worker_crashes", worker_crashes);
  set("heartbeat_timeouts", heartbeat_timeouts);
  set("restarts", restarts);
  set("backoffs", backoffs);
  set("quarantined", quarantined);
  set("corrupt_snapshots_skipped", corrupt_snapshots_skipped);
  registry.gauge(prefix + "backoff_total_ms").set(backoff_total_ms);
}

void FleetReport::write_payload(std::ostream& os) const {
  os << "ash-fleet-report v1\n";
  os << "shards " << shards.size() << "\n";
  for (const auto& s : shards) {
    os << "shard " << s.shard_id << " chip " << s.chip_id << " completed "
       << (s.completed ? 1 : 0) << " phases " << s.phases_done << "/"
       << s.phases_total << "\n";
    if (s.have_state) {
      os << "faults " << s.state.faults.serialize() << "\n";
      os << "log\n";
      s.state.log.write_csv(os);
    } else {
      os << "faults -\n";
      os << "log\n";
    }
    os << "end shard\n";
  }
}

std::string FleetReport::payload() const {
  std::ostringstream os;
  write_payload(os);
  return os.str();
}

std::uint32_t FleetReport::payload_crc() const {
  return util::crc32(payload());
}

bool FleetReport::all_completed() const {
  return std::all_of(shards.begin(), shards.end(),
                     [](const ShardOutcome& s) { return s.completed; });
}

std::string FleetReport::render() const {
  Table t({"shard", "chip", "quality", "restarts", "phases", "samples",
           "completed"});
  for (const auto& s : shards) {
    t.add_row({strformat("%d", s.shard_id), strformat("%d", s.chip_id),
               to_string(s.quality), strformat("%d", s.restarts),
               strformat("%d/%d", s.phases_done, s.phases_total),
               s.have_state ? strformat("%zu", s.state.log.size())
                            : std::string("-"),
               s.completed ? "yes" : "no"});
  }
  std::ostringstream os;
  os << t.render() << stats.render();
  return os.str();
}

FleetSupervisor::FleetSupervisor(FleetConfig config,
                                 std::vector<ShardSpec> shards)
    : config_(std::move(config)), shards_(std::move(shards)) {
  if (shards_.empty()) {
    throw std::invalid_argument("fleet supervisor: no shards");
  }
  std::set<int> ids;
  for (const auto& s : shards_) {
    if (!ids.insert(s.shard_id).second) {
      throw std::invalid_argument("fleet supervisor: duplicate shard id " +
                                  std::to_string(s.shard_id));
    }
    // A chip that cannot be built would crash every worker forked for it.
    fpga::check_ring_stages(s.chip.ro_stages);
  }
  // Validate the store up front (throws on a missing/unwritable dir).
  (void)CheckpointStore(config_.checkpoint_dir);
}

FleetReport FleetSupervisor::run() {
  const CheckpointStore store(config_.checkpoint_dir);
  FleetReport report;
  SupervisionStats& stats = report.stats;

  std::vector<Slot> slots(shards_.size());

  const auto spawn = [&](Slot& slot) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("fleet supervisor: pipe() failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fleet supervisor: fork() failed");
    }
    if (pid == 0) {
      ::close(fds[0]);
      run_worker(config_, *slot.spec, slot.attempt, fds[1]);  // never returns
    }
    ::close(fds[1]);
    slot.pid = pid;
    slot.fd = fds[0];
    slot.state = Slot::State::kRunning;
    slot.last_beat_ms = obs::monotonic_ms();
    stats.workers_launched++;
  };

  /// Load the newest valid snapshot into the slot's outcome (shared by
  /// the success and quarantine paths).
  const auto load_state = [&](Slot& slot) {
    if (const auto newest = store.load_newest_valid(slot.spec->shard_id)) {
      slot.outcome.state = tb::CampaignCheckpoint::deserialize(newest->payload);
      slot.outcome.have_state = true;
      // Adds to the worker-reported ('c' byte) tallies: files still corrupt
      // at report time are ones no worker got to step over.
      slot.outcome.corrupt_snapshots_skipped += newest->corrupt_skipped;
      stats.corrupt_snapshots_skipped += newest->corrupt_skipped;
    }
    slot.outcome.phases_done =
        slot.outcome.have_state ? slot.outcome.state.next_phase : 0;
    slot.outcome.completed = slot.outcome.have_state &&
                             slot.outcome.phases_done ==
                                 slot.outcome.phases_total;
  };

  const auto finish = [&](Slot& slot) {
    slot.state = Slot::State::kDone;
    load_state(slot);
    slot.outcome.quality = slot.outcome.restarts > 0
                               ? ShardQuality::kRecovered
                               : ShardQuality::kClean;
  };

  const auto strike = [&](Slot& slot, const char* why) {
    if (slot.attempt < config_.max_restarts) {
      const double backoff =
          std::min(static_cast<double>(config_.backoff_max_ms),
                   static_cast<double>(config_.backoff_initial_ms) *
                       std::pow(config_.backoff_multiplier,
                                static_cast<double>(slot.attempt)));
      slot.state = Slot::State::kBackoff;
      slot.restart_at_ms = obs::monotonic_ms() + backoff;
      slot.attempt++;
      slot.outcome.restarts++;
      stats.restarts++;
      stats.backoffs++;
      stats.backoff_total_ms += backoff;
      if (obs::tracing()) {
        obs::instant(obs::EventKind::kBackoff,
                     "shard " + std::to_string(slot.spec->shard_id),
                     "fleet.supervisor",
                     {{"why", why},
                      {"attempt", std::to_string(slot.attempt)},
                      {"backoff_ms", fmt_fixed(backoff, 0)}});
      }
    } else {
      slot.state = Slot::State::kQuarantined;
      load_state(slot);
      slot.outcome.quality = ShardQuality::kQuarantined;
      stats.quarantined++;
      if (obs::tracing()) {
        obs::instant(obs::EventKind::kWorkerQuarantine,
                     "shard " + std::to_string(slot.spec->shard_id),
                     "fleet.supervisor",
                     {{"why", why},
                      {"strikes", std::to_string(slot.attempt + 1)}});
      }
    }
  };

  /// Reap a worker whose pipe reached EOF (it exited or was killed).
  const auto reap = [&](Slot& slot) {
    ::close(slot.fd);
    slot.fd = -1;
    int status = 0;
    (void)util::retry_eintr(
        [&] { return ::waitpid(slot.pid, &status, 0); });
    slot.pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      finish(slot);
    } else {
      stats.worker_crashes++;
      strike(slot, WIFSIGNALED(status) ? "killed" : "crashed");
    }
  };

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    slots[i].spec = &shards_[i];
    slots[i].outcome.shard_id = shards_[i].shard_id;
    slots[i].outcome.chip_id = shards_[i].chip.chip_id;
    slots[i].outcome.phases_total =
        static_cast<int>(shards_[i].test_case.phases.size());
    spawn(slots[i]);
  }

  for (;;) {
    // Assemble the poll set and the nearest deadline.
    std::vector<pollfd> pfds;
    std::vector<Slot*> pfd_slots;
    double next_deadline = std::numeric_limits<double>::infinity();
    bool live = false;
    const double now = obs::monotonic_ms();
    for (auto& slot : slots) {
      if (slot.state == Slot::State::kRunning) {
        pfds.push_back({slot.fd, POLLIN, 0});
        pfd_slots.push_back(&slot);
        next_deadline = std::min(
            next_deadline, slot.last_beat_ms + config_.heartbeat_timeout_ms);
        live = true;
      } else if (slot.state == Slot::State::kBackoff) {
        next_deadline = std::min(next_deadline, slot.restart_at_ms);
        live = true;
      }
    }
    if (!live) break;

    const int timeout = static_cast<int>(
        std::ceil(std::clamp(next_deadline - now, 0.0, 60'000.0)));
    const int ready = util::retry_eintr([&] {
      return ::poll(pfds.empty() ? nullptr : pfds.data(),
                    static_cast<nfds_t>(pfds.size()), timeout);
    });
    if (ready < 0) {
      throw std::runtime_error("fleet supervisor: poll() failed");
    }

    // Drain heartbeats; EOF means the worker is gone.
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      Slot& slot = *pfd_slots[i];
      if (slot.state != Slot::State::kRunning) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[256];
        const ssize_t n = util::retry_eintr(
            [&] { return ::read(slot.fd, buf, sizeof buf); });
        if (n > 0) {
          slot.last_beat_ms = obs::monotonic_ms();
          for (ssize_t b = 0; b < n; ++b) {
            if (buf[b] == 'c') {
              slot.outcome.corrupt_snapshots_skipped++;
              stats.corrupt_snapshots_skipped++;
            }
          }
        } else if (n == 0) {
          reap(slot);
        }
        // n < 0: spurious wakeup; leave the deadline running.
      }
    }

    // Deadlines: hung workers and due restarts.
    const double after = obs::monotonic_ms();
    for (auto& slot : slots) {
      if (slot.state == Slot::State::kRunning &&
          after - slot.last_beat_ms >= config_.heartbeat_timeout_ms) {
        stats.heartbeat_timeouts++;
        if (obs::tracing()) {
          obs::instant(obs::EventKind::kHeartbeatMiss,
                       "shard " + std::to_string(slot.spec->shard_id),
                       "fleet.supervisor",
                       {{"silent_ms",
                         fmt_fixed(after - slot.last_beat_ms, 0)}});
        }
        ::kill(slot.pid, SIGKILL);
        // The pipe write end closes when the kill lands; reap right away
        // (waitpid blocks the few ms until the zombie appears).
        ::close(slot.fd);
        slot.fd = -1;
        int status = 0;
        (void)util::retry_eintr(
            [&] { return ::waitpid(slot.pid, &status, 0); });
        slot.pid = -1;
        stats.worker_crashes++;
        strike(slot, "hung");
      } else if (slot.state == Slot::State::kBackoff &&
                 after >= slot.restart_at_ms) {
        if (obs::tracing()) {
          obs::instant(obs::EventKind::kWorkerRestart,
                       "shard " + std::to_string(slot.spec->shard_id),
                       "fleet.supervisor",
                       {{"attempt", std::to_string(slot.attempt)}});
        }
        spawn(slot);
      }
    }
  }

  for (auto& slot : slots) report.shards.push_back(std::move(slot.outcome));
  std::sort(report.shards.begin(), report.shards.end(),
            [](const ShardOutcome& a, const ShardOutcome& b) {
              return a.shard_id < b.shard_id;
            });
  return report;
}

std::vector<ShardSpec> paper_fleet_shards(int count, std::uint64_t seed,
                                          int ro_stages) {
  const auto campaign = tb::paper_campaign();
  std::vector<ShardSpec> shards;
  shards.reserve(static_cast<std::size_t>(std::max(0, count)));
  for (int i = 0; i < count; ++i) {
    ShardSpec spec;
    spec.shard_id = i;
    spec.test_case = campaign[static_cast<std::size_t>(i) % campaign.size()];
    spec.chip.chip_id = spec.test_case.chip_id;
    spec.chip.seed = derive_seed(seed, static_cast<std::uint64_t>(i));
    spec.chip.ro_stages = ro_stages;
    shards.push_back(std::move(spec));
  }
  return shards;
}

}  // namespace ash::fleet
