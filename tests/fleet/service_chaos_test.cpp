/// Chaos acceptance for the fleet service (`ctest -L faults`):
///
///   * a retrying client under the protocol chaos preset — dropped
///     connections, torn frames, stalled writes, daemon SIGKILL + restart —
///     converges to a transcript byte-identical to an undisturbed run;
///   * malformed-frame fuzz (truncations at every boundary, header bit
///     flips, hostile lengths, plain garbage) never crashes or hangs the
///     daemon;
///   * SIGTERM drains with a final durable snapshot; SIGKILL restarts
///     resume the acknowledged state and replay acknowledged mutations.
///
/// The daemon runs as a forked child (real sockets, real SIGKILL) under
/// `fleet::ForkedDaemon`, the same harness `ash_fleetd drill` uses.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/client.h"
#include "ash/fleet/fault.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/util/crc32.h"
#include "ash/util/syscall.h"

namespace ash::fleet {
namespace {

/// Blocking raw connect with a startup-grace retry loop.
int raw_connect(const std::string& socket_path) {
  for (int tries = 0; tries < 500; ++tries) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    const auto ret = util::retry_eintr([&] {
      return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof addr);
    });
    if (ret == 0) return fd;
    ::close(fd);
    ::usleep(10'000);
  }
  return -1;
}

void send_raw(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto n = util::retry_eintr([&] {
      return ::send(fd, bytes.data() + sent, bytes.size() - sent,
                    MSG_NOSIGNAL);
    });
    if (n <= 0) return;  // daemon dropped us — exactly what fuzz expects
    sent += static_cast<std::size_t>(n);
  }
}

class ServiceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_chaos_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  ServiceConfig daemon_config(const std::string& name) {
    const std::string root = dir_ + "/" + name;
    const std::string cmd = "mkdir -p '" + root + "/state'";
    if (std::system(cmd.c_str()) != 0) ADD_FAILURE() << "mkdir " << root;
    ServiceConfig config;
    config.socket_path = root + "/fleetd.sock";
    config.state_dir = root + "/state";
    config.devices = 6;
    config.seed = 0xC4A05;
    // Tight deadline: the 400 ms chaos stall triggers a real slow-loris
    // eviction; honest requests never park that long.
    config.io_timeout_ms = 150;
    config.poll_interval_ms = 5;
    return config;
  }

  /// The scripted session both the clean and the chaos run replay.
  struct SessionResult {
    std::string transcript;
    ClientStats stats;
  };
  static SessionResult run_session(ForkedDaemon& daemon,
                                   const ServiceConfig& config,
                                   const FleetFaultPlan& chaos) {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 42;
    cc.chaos = chaos;
    cc.kill_daemon = [&daemon] { daemon.kill_and_restart(); };
    Client client(cc);
    for (int i = 0; i < 12; ++i) {
      const auto device = static_cast<std::uint64_t>(i % 6);
      switch (i % 4) {
        case 0:
          (void)client.status();
          break;
        case 1: {
          MarginRequest req;
          req.device_id = device;
          req.duty = 0.25 * (1 + i % 3);
          (void)client.margin(req);
          break;
        }
        case 2: {
          ScheduleSleepRequest req;
          req.device_id = device;
          req.start = Seconds{3600.0 * i};
          (void)client.schedule_sleep(req);
          break;
        }
        default:
          (void)client.ping();
          break;
      }
    }
    (void)client.status();  // final durable-state fingerprint
    return {client.transcript(), client.stats()};
  }

  std::string dir_;
};

TEST_F(ServiceChaosTest, ChaosTranscriptIsByteIdenticalToCleanRun) {
  SessionResult results[2];
  const char* names[2] = {"clean", "chaos"};
  for (int session = 0; session < 2; ++session) {
    const ServiceConfig config = daemon_config(names[session]);
    ForkedDaemon daemon(config);
    daemon.start();
    results[session] = run_session(
        daemon, config,
        session == 0 ? FleetFaultPlan::none() : FleetFaultPlan::protocol());
    EXPECT_EQ(daemon.terminate(), 0) << names[session] << " daemon drained";
  }
  // The chaos actually happened...
  const ClientStats& chaos = results[1].stats;
  EXPECT_GT(chaos.drops_injected, 0u);
  EXPECT_GT(chaos.truncations_injected, 0u);
  EXPECT_GT(chaos.stalls_injected, 0u);
  EXPECT_GT(chaos.daemon_kills_injected, 0u);
  EXPECT_GT(chaos.reconnects, results[0].stats.reconnects);
  // ...and the transcripts are still byte-identical.
  ASSERT_FALSE(results[0].transcript.empty());
  EXPECT_EQ(util::crc32(results[0].transcript),
            util::crc32(results[1].transcript));
  EXPECT_EQ(results[0].transcript, results[1].transcript);
}

TEST_F(ServiceChaosTest, MalformedFrameFuzzNeverCrashesOrHangsTheDaemon) {
  const ServiceConfig config = daemon_config("fuzz");
  ForkedDaemon daemon(config);
  daemon.start();

  // Corpus: a valid status request torn at every byte boundary, every
  // single-bit corruption of its header, hostile garbage, and a frame
  // declaring a 16-exabyte payload with a self-consistent header CRC.
  const std::string good =
      frame_message(MessageType::kStatusRequest, 1, StatusRequest().encode());
  std::vector<std::string> corpus;
  for (std::size_t cut = 0; cut <= good.size(); ++cut) {
    corpus.push_back(good.substr(0, cut));
  }
  for (std::size_t bit = 0; bit < kFrameHeaderSize * 8; ++bit) {
    std::string bad = good;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    corpus.push_back(bad);
  }
  corpus.push_back("GET / HTTP/1.1\r\nHost: fleetd\r\n\r\n");
  corpus.push_back(std::string(512, '\xff'));
  corpus.push_back(std::string(512, '\0'));
  {
    std::string huge = good;
    for (int i = 0; i < 8; ++i) huge[24 + i] = '\xff';
    const std::uint32_t crc =
        util::crc32(std::string_view(huge).substr(0, 36));
    for (int i = 0; i < 4; ++i) {
      huge[36 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
    }
    corpus.push_back(huge.substr(0, kFrameHeaderSize));
  }

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const int fd = raw_connect(config.socket_path);
    ASSERT_GE(fd, 0) << "daemon unreachable before case " << i;
    send_raw(fd, corpus[i]);
    ::close(fd);
  }

  // The daemon survived every case: a well-formed client still gets
  // answers within its deadline (no hang), and SIGTERM drains cleanly.
  ClientConfig cc;
  cc.socket_path = config.socket_path;
  cc.io_timeout_ms = 2000;
  Client client(cc);
  EXPECT_TRUE(client.ping());
  EXPECT_EQ(client.status().devices, 6u);
  EXPECT_EQ(daemon.terminate(), 0);
}

TEST_F(ServiceChaosTest, SigkillRestartReplaysAcknowledgedMutations) {
  const ServiceConfig config = daemon_config("sigkill");
  ForkedDaemon daemon(config);
  daemon.start();

  std::string first_transcript;
  {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 7;
    Client client(cc);
    ScheduleSleepRequest req;
    req.device_id = 2;
    req.start = Seconds{7200.0};
    EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
    req.device_id = 3;
    EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
    EXPECT_EQ(client.status().sequence, 2u);
    first_transcript = client.transcript();
  }

  daemon.kill_and_restart();

  // A fresh client with the same client_id re-issues the same request ids
  // from 1: every call must replay against the restarted daemon's durable
  // idempotency table — same bytes, nothing double-booked.
  ClientConfig cc;
  cc.socket_path = config.socket_path;
  cc.client_id = 7;
  Client client(cc);
  ScheduleSleepRequest req;
  req.device_id = 2;
  req.start = Seconds{7200.0};
  EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
  req.device_id = 3;
  EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
  const StatusResponse status = client.status();
  EXPECT_EQ(status.sequence, 2u);  // replays, not new mutations
  EXPECT_EQ(status.windows, 2u);
  EXPECT_EQ(client.transcript(), first_transcript);
  EXPECT_EQ(daemon.terminate(), 0);
}

TEST_F(ServiceChaosTest, SigtermDrainWritesFinalSnapshotAndMetrics) {
  ServiceConfig config = daemon_config("drain");
  config.metrics_path = dir_ + "/drain/metrics.txt";
  {
    ForkedDaemon daemon(config);
    daemon.start();
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    Client client(cc);
    ScheduleSleepRequest req;
    req.device_id = 1;
    (void)client.schedule_sleep(req);
    EXPECT_TRUE(client.ping());
    EXPECT_EQ(daemon.terminate(), 0);
  }
  // The drain published its metrics snapshot...
  std::string metrics;
  {
    std::FILE* f = std::fopen(config.metrics_path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "metrics snapshot missing";
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf, f);
    std::fclose(f);
    metrics.assign(buf, n);
  }
  EXPECT_NE(metrics.find("fleet.service.requests"), std::string::npos);
  EXPECT_NE(metrics.find("fleet.service.mutations"), std::string::npos);
  // ...and the socket file is gone (clean unbind).
  EXPECT_NE(::access(config.socket_path.c_str(), F_OK), 0);
  // A restarted daemon resumes the acknowledged state.
  ForkedDaemon reborn(config);
  reborn.start();
  ClientConfig cc;
  cc.socket_path = config.socket_path;
  Client client(cc);
  const StatusResponse status = client.status();
  EXPECT_EQ(status.sequence, 1u);
  EXPECT_EQ(status.windows, 1u);
  EXPECT_EQ(reborn.terminate(), 0);
}

TEST_F(ServiceChaosTest, SlowLorisIsEvictedWhileHonestClientsAreServed) {
  const ServiceConfig config = daemon_config("loris");
  ForkedDaemon daemon(config);
  daemon.start();

  // Park half a frame and go silent.
  const std::string bytes =
      frame_message(MessageType::kStatusRequest, 9, StatusRequest().encode());
  const int loris = raw_connect(config.socket_path);
  ASSERT_GE(loris, 0);
  send_raw(loris, bytes.substr(0, kFrameHeaderSize / 2));

  // Honest clients keep getting served while the loris squats.
  ClientConfig cc;
  cc.socket_path = config.socket_path;
  Client client(cc);
  EXPECT_TRUE(client.ping());
  EXPECT_TRUE(client.ping());

  // The daemon evicts the loris at its I/O deadline: our end sees EOF.
  char drain[64];
  const auto n = util::retry_eintr(
      [&] { return ::recv(loris, drain, sizeof drain, 0); });
  EXPECT_EQ(n, 0) << "loris connection should be closed by the daemon";
  ::close(loris);

  EXPECT_TRUE(client.ping());  // and honest service continues
  EXPECT_EQ(daemon.terminate(), 0);
}

}  // namespace
}  // namespace ash::fleet
