/// Observability acceptance for the fleet service (`ctest -L faults`):
///
///   * the volatile scrape channel (the metrics scrape) answers over the
///     real wire with the daemon's live tallies, liveness included;
///   * scrapes interleaved mid-session stay out of the client transcript,
///     so the chaos transcript-identity gate is unperturbed by watching;
///   * a SIGKILLed daemon leaves a loadable flight-recorder dump whose
///     events explain the life it led — every acknowledged mutation, once
///     a later round trip has come back;
///   * the dump is rewritten only after a tick that recorded an event:
///     reads cost no dump, a mutation at most one;
///   * the SIGTERM drain's metrics dump is atomic: complete content, no
///     temp-file debris, readable while torn-write chaos reigns elsewhere;
///     written last, it counts every flight dump.
///
/// The daemon runs as a forked child (real sockets, real signals) under
/// `fleet::ForkedDaemon`, the same harness the chaos suite and
/// `ash_fleetd drill` use; the drain test runs it on a thread instead.

#include <pthread.h>
#include <signal.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/client.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/obs/flight_recorder.h"
#include "ash/obs/metrics.h"
#include "ash/util/atomic_file.h"

namespace ash::fleet {
namespace {

/// Parse a `MetricsSnapshot::render()` document into name -> value.
double metric_value(const std::string& text, const std::string& name,
                    bool* found = nullptr) {
  if (found != nullptr) *found = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    if (line.substr(0, eq) != name) continue;
    if (found != nullptr) *found = true;
    return std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return 0.0;
}

class ServiceObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_obs_XXXXXX";
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
    config.seed = 0x0B5;
    config.poll_interval_ms = 5;
    config.flight_recorder_path = root + "/flight.txt";
    config.metrics_path = root + "/metrics.txt";
    return config;
  }

  std::string dir_;
};

TEST_F(ServiceObsTest, InProcessScrapesAnswerLiveTallies) {
  // Drive respond() directly: the scrape responses must agree with the
  // service's own accessors, request by request.
  ServiceConfig config = daemon_config("inproc");
  Service service(config);

  ScheduleSleepRequest sleep_req;
  sleep_req.client_id = 9;
  sleep_req.device_id = 2;
  const Frame ack = service.respond(
      {MessageType::kScheduleSleepRequest, 1, sleep_req.encode()});
  ASSERT_EQ(ack.type, MessageType::kScheduleSleepResponse);
  EXPECT_EQ(ScheduleSleepResponse::parse(ack.payload).windows, 1u);

  MetricsRequest metrics_req;
  metrics_req.prefix = "fleet.service.";
  const Frame metrics_frame = service.respond(
      {MessageType::kMetricsRequest, 3, metrics_req.encode()});
  ASSERT_EQ(metrics_frame.type, MessageType::kMetricsResponse);
  const MetricsResponse metrics =
      MetricsResponse::parse(metrics_frame.payload);
  // The scrape text is the publish_volatile view: the mutation above must
  // already be visible, and the prefix filter must hold.
  bool found = false;
  EXPECT_EQ(metric_value(metrics.text, "fleet.service.mutations", &found),
            1.0);
  EXPECT_TRUE(found);
  EXPECT_EQ(
      metric_value(metrics.text, "fleet.service.health.snapshot_lag", &found),
      static_cast<double>(service.snapshot_lag()));
  EXPECT_TRUE(found);
  EXPECT_EQ(
      metric_value(metrics.text, "fleet.service.health.draining", &found),
      0.0);
  EXPECT_TRUE(found);
  EXPECT_EQ(metrics.text.find("fleet.protocol."), std::string::npos)
      << "prefix filter leaked foreign metrics";

  // Scrapes are reads: no mutation applied, no durable sequence advance.
  EXPECT_EQ(service.state().sequence, 1u);
}

TEST_F(ServiceObsTest, RequestPathWritesNoFlightDump) {
  // respond() runs between a request's decode and its ack: the journal's
  // fdatasync is its only durable write, and the flight ring is never
  // dumped there — the poll loop dumps it after the tick's acks are sent.
  ServiceConfig config = daemon_config("ackpath");
  Service service(config);
  const std::uint64_t at_start = service.stats().flight_dumps;
  EXPECT_EQ(at_start, 1u) << "genesis dumps the ring once";
  for (std::uint64_t i = 0; i < 120; ++i) {
    ScheduleSleepRequest req;
    req.client_id = 4;
    req.device_id = i % 6;
    const Frame ack = service.respond(
        {MessageType::kScheduleSleepRequest, 10 + i, req.encode()});
    ASSERT_EQ(ack.type, MessageType::kScheduleSleepResponse);
    MarginRequest margin;
    margin.device_id = i % 6;
    (void)service.respond(
        {MessageType::kMarginRequest, 1000 + i, margin.encode()});
  }
  EXPECT_GE(service.stats().snapshots_saved, 2u) << "compaction ran too";
  EXPECT_EQ(service.stats().flight_dumps, at_start);
}

TEST_F(ServiceObsTest, WireScrapesReportTheDaemonsLife) {
  const ServiceConfig config = daemon_config("wire");
  ForkedDaemon daemon(config);
  daemon.start();

  ClientConfig cc;
  cc.socket_path = config.socket_path;
  cc.client_id = 5;
  Client client(cc);

  // The first scrape over a fresh connection already counts it.
  EXPECT_GE(metric_value(client.metrics("fleet.service.health.").text,
                         "fleet.service.health.connections"),
            1.0);

  ScheduleSleepRequest req;
  req.client_id = cc.client_id;
  req.device_id = 3;
  EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
  EXPECT_TRUE(client.ping());

  const MetricsResponse metrics = client.metrics("fleet.");
  ASSERT_EQ(metrics.status, Status::kOk);
  bool found = false;
  EXPECT_GE(metric_value(metrics.text, "fleet.service.requests", &found),
            2.0);
  EXPECT_TRUE(found);
  // Liveness rides the same scrape.
  const double connections =
      metric_value(metrics.text, "fleet.service.health.connections", &found);
  EXPECT_TRUE(found);
  EXPECT_GE(connections, 1.0);
  EXPECT_GE(metric_value(metrics.text,
                         "fleet.service.health.connections_high_water",
                         &found),
            connections);
  EXPECT_TRUE(found);
  EXPECT_EQ(
      metric_value(metrics.text, "fleet.service.health.snapshot_lag", &found),
      0.0)
      << "write-ahead means no lag at rest";
  EXPECT_TRUE(found);
  EXPECT_EQ(
      metric_value(metrics.text, "fleet.service.health.draining", &found),
      0.0);
  EXPECT_TRUE(found);
  EXPECT_EQ(metric_value(metrics.text, "fleet.service.mutations", &found),
            1.0);
  EXPECT_TRUE(found);
  // The daemon decodes frames through the same tallied choke point the
  // protocol tests pin, and publishes the counters under fleet.protocol.*.
  EXPECT_GE(
      metric_value(metrics.text, "fleet.protocol.frames_decoded", &found),
      3.0);
  EXPECT_TRUE(found);
  // The instrumented request path recorded per-verb latency histograms.
  EXPECT_GE(metric_value(metrics.text,
                         "fleet.service.latency.schedule_sleep.count",
                         &found),
            1.0);
  EXPECT_TRUE(found);

  EXPECT_EQ(daemon.terminate(), 0);
}

TEST_F(ServiceObsTest, ScrapesStayOutOfTheTranscript) {
  // Two sessions issue the identical deterministic request sequence; the
  // second also scrapes between every request.  Transcripts must match
  // byte-for-byte — the "watching cannot perturb the gate" guarantee the
  // drill relies on.
  std::string transcripts[2];
  const char* names[2] = {"quiet", "watched"};
  for (int session = 0; session < 2; ++session) {
    const ServiceConfig config = daemon_config(names[session]);
    ForkedDaemon daemon(config);
    daemon.start();
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 11;
    Client client(cc);
    for (int i = 0; i < 6; ++i) {
      if (i % 2 == 0) {
        (void)client.status();
      } else {
        ScheduleSleepRequest req;
        req.client_id = cc.client_id;
        req.device_id = static_cast<std::uint64_t>(i);
        (void)client.schedule_sleep(req);
      }
      if (session == 1) (void)client.metrics("fleet.service.");
    }
    transcripts[session] = client.transcript();
    EXPECT_EQ(daemon.terminate(), 0);
  }
  ASSERT_FALSE(transcripts[0].empty());
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

TEST_F(ServiceObsTest, SigkilledDaemonLeavesALoadableFlightDump) {
  const ServiceConfig config = daemon_config("sigkill");
  ForkedDaemon daemon(config);
  daemon.start();

  {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 8;
    Client client(cc);
    // Each mutation checkpoints durable state, and every checkpoint
    // persists the flight recorder — so the dump on disk at SIGKILL time
    // explains at least the acknowledged life.
    ScheduleSleepRequest req;
    req.client_id = cc.client_id;
    req.device_id = 1;
    EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
    req.device_id = 4;
    EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
  }

  daemon.kill();

  const std::string dump = util::read_file(config.flight_recorder_path);
  const auto events = obs::FlightRecorder::load(dump);
  ASSERT_FALSE(events.empty());
  bool saw_start = false, saw_accept = false, saw_snapshot = false,
       saw_mutation = false;
  for (const auto& e : events) {
    saw_start |= e.kind == obs::FlightEventKind::kDaemonStart;
    saw_accept |= e.kind == obs::FlightEventKind::kConnectionAccepted;
    saw_snapshot |= e.kind == obs::FlightEventKind::kSnapshotSaved;
    saw_mutation |= e.kind == obs::FlightEventKind::kMutationApplied;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_accept);
  EXPECT_TRUE(saw_snapshot);
  EXPECT_TRUE(saw_mutation);
  // The render is the post-mortem view `ash_fleetd flight` prints.
  const std::string table = obs::FlightRecorder::render(events);
  EXPECT_NE(table.find("mutation-applied"), std::string::npos);
}

TEST_F(ServiceObsTest, DrainMetricsDumpIsAtomicAndComplete) {
  // run() on a thread, SIGTERMed there, so its stats() can be read after
  // the drain (ServiceChaosTest checks a forked daemon's SIGTERM exit).
  const ServiceConfig config = daemon_config("drain");
  Service service(config);
  std::thread serving([&] { service.run(); });
  try {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 3;
    Client client(cc);
    ScheduleSleepRequest req;
    req.client_id = cc.client_id;
    req.device_id = 2;
    (void)client.schedule_sleep(req);  // answered: run()'s handler is set
    EXPECT_TRUE(client.ping());
  } catch (const std::exception& e) {
    ADD_FAILURE() << e.what();
  }
  ::pthread_kill(serving.native_handle(), SIGTERM);
  serving.join();

  // The dump went through atomic_write_file: full content, trailing
  // newline, and no temp-file debris anywhere in the daemon's directory.
  const std::string metrics = util::read_file(config.metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_EQ(metrics.back(), '\n');
  bool found = false;
  EXPECT_EQ(metric_value(metrics, "fleet.service.mutations", &found), 1.0);
  EXPECT_TRUE(found);
  EXPECT_GE(metric_value(metrics, "fleet.protocol.frames_decoded", &found),
            2.0);
  EXPECT_TRUE(found);
  // Written last, it counts every flight dump, the drain's own included.
  EXPECT_EQ(metric_value(metrics, "fleet.service.flight_dumps", &found),
            static_cast<double>(service.stats().flight_dumps));
  EXPECT_TRUE(found);
  const std::string root = dir_ + "/drain";
  const std::string find_cmd =
      "test -z \"$(find '" + root + "' -name '*.tmp*' -print -quit)\"";
  EXPECT_EQ(std::system(find_cmd.c_str()), 0) << "temp-file debris left";

  // The flight dump from the drain is loadable and records the drain.
  const auto events =
      obs::FlightRecorder::load(util::read_file(config.flight_recorder_path));
  bool saw_drain_begin = false, saw_drain_end = false;
  for (const auto& e : events) {
    saw_drain_begin |= e.kind == obs::FlightEventKind::kDrainBegin;
    saw_drain_end |= e.kind == obs::FlightEventKind::kDrainEnd;
  }
  EXPECT_TRUE(saw_drain_begin);
  EXPECT_TRUE(saw_drain_end);
}

TEST_F(ServiceObsTest, ReadsWriteNoFlightDumpsAndMutationsAtMostOneEach) {
  const ServiceConfig config = daemon_config("dumps");
  ForkedDaemon daemon(config);
  daemon.start();

  ClientConfig cc;
  cc.socket_path = config.socket_path;
  cc.client_id = 21;
  Client client(cc);
  // The ping's tick records the accept and dumps it; the scrape after it
  // sees that dump already counted.
  ASSERT_TRUE(client.ping());
  const auto dumps = [&] {
    bool found = false;
    const double v = metric_value(client.metrics("fleet.service.").text,
                                  "fleet.service.flight_dumps", &found);
    EXPECT_TRUE(found);
    return v;
  };
  const double before_reads = dumps();
  EXPECT_GE(before_reads, 1.0);

  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 2) {
      EXPECT_EQ(client.status().status, Status::kOk);
    } else {
      MarginRequest req;
      req.device_id = static_cast<std::uint64_t>(i % 6);
      EXPECT_EQ(client.margin(req).status, Status::kOk);
    }
  }
  const double after_reads = dumps();
  EXPECT_EQ(after_reads, before_reads) << "a read rewrote the flight ring";

  constexpr int kMutations = 5;
  for (int i = 0; i < kMutations; ++i) {
    ScheduleSleepRequest req;
    req.client_id = cc.client_id;
    req.device_id = static_cast<std::uint64_t>(i);
    EXPECT_EQ(client.schedule_sleep(req).windows, 1u);
  }
  const double after_mutations = dumps();
  EXPECT_GT(after_mutations, after_reads);
  EXPECT_LE(after_mutations - after_reads, kMutations);
  EXPECT_EQ(client.stats().reconnects, 1u)
      << "a second connection records an accept";

  EXPECT_EQ(daemon.terminate(), 0);
}

TEST_F(ServiceObsTest, SigkillAfterAPingKeepsEveryAckedMutationInTheDump) {
  // The dump of a mutation's tick is written after its ack and before the
  // daemon polls again, so once a later round trip (a ping, which records
  // nothing) has come back, the dump on disk holds every acked mutation.
  const ServiceConfig config = daemon_config("acked");
  ForkedDaemon daemon(config);
  daemon.start();

  constexpr int kMutations = 4;
  {
    ClientConfig cc;
    cc.socket_path = config.socket_path;
    cc.client_id = 17;
    Client client(cc);
    for (int i = 0; i < kMutations; ++i) {
      ScheduleSleepRequest req;
      req.client_id = cc.client_id;
      req.device_id = static_cast<std::uint64_t>(i + 1);
      ASSERT_EQ(client.schedule_sleep(req).windows, 1u);
    }
    ASSERT_TRUE(client.ping());
    daemon.kill();
  }

  const auto events =
      obs::FlightRecorder::load(util::read_file(config.flight_recorder_path));
  int applied = 0;
  for (const auto& e : events) {
    applied += e.kind == obs::FlightEventKind::kMutationApplied ? 1 : 0;
  }
  EXPECT_EQ(applied, kMutations);
}

}  // namespace
}  // namespace ash::fleet
