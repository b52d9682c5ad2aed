#include "ash/fleet/service.h"

#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/mc/margin.h"
#include "ash/obs/metrics.h"

namespace ash::fleet {
namespace {

/// mkdtemp fixture: each test gets a private state directory and a service
/// configured for in-process respond()/process_tick() testing (no socket).
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_fleetd_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  ServiceConfig small_config() const {
    ServiceConfig config;
    config.socket_path = dir_ + "/fleet.sock";
    config.state_dir = dir_;
    config.devices = 8;
    config.seed = 0xF1EE7;
    config.max_request_queue = 4;
    return config;
  }

  static Frame request(MessageType type, std::uint64_t id,
                       const std::string& payload) {
    Frame frame;
    frame.type = type;
    frame.request_id = id;
    frame.payload = payload;
    return frame;
  }

  std::string dir_;
};

TEST_F(ServiceTest, GenesisIsDeterministic) {
  const ServiceState a = ServiceState::genesis(8, Volts{12e-3}, 42);
  const ServiceState b = ServiceState::genesis(8, Volts{12e-3}, 42);
  const ServiceState c = ServiceState::genesis(8, Volts{12e-3}, 43);
  ASSERT_EQ(a.devices.size(), 8u);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_NE(a.serialize(), c.serialize());
  for (const DeviceAging& device : a.devices) {
    EXPECT_GE(device.delta_vth.value(), 0.0);
    EXPECT_LE(device.delta_vth.value(), 0.9 * 12e-3);
  }
}

TEST_F(ServiceTest, StateSerializationRoundTripsBitExactly) {
  ServiceState state = ServiceState::genesis(3, Volts{12e-3}, 7);
  state.sequence = 5;
  state.devices[1].windows.push_back({Seconds{3600.0}, Seconds{21600.0}});
  state.applied.push_back({42, 9, 1});
  const std::string bytes = state.serialize();
  const ServiceState back = ServiceState::deserialize(bytes);
  EXPECT_EQ(back.serialize(), bytes);
  EXPECT_EQ(back.sequence, 5u);
  EXPECT_EQ(back.total_windows(), 1u);
  ASSERT_NE(back.find_applied(42, 9), nullptr);
  EXPECT_EQ(back.find_applied(42, 9)->windows_after, 1u);
  EXPECT_EQ(back.find_applied(42, 10), nullptr);
}

TEST_F(ServiceTest, StateDeserializeRejectsMalformedInput) {
  const std::string good = ServiceState::genesis(2, Volts{12e-3}, 1)
                               .serialize();
  EXPECT_THROW(ServiceState::deserialize(""), std::runtime_error);
  EXPECT_THROW(ServiceState::deserialize("not a state doc\n"),
               std::runtime_error);
  // Missing terminator: a torn text body must not deserialize.
  EXPECT_THROW(ServiceState::deserialize(good.substr(0, good.size() - 4)),
               std::runtime_error);
}

TEST_F(ServiceTest, MarginQueryMatchesDirectProjection) {
  Service service(small_config());
  MarginRequest req;
  req.device_id = 2;
  req.duty = 0.75;
  const Frame reply = service.respond(
      request(MessageType::kMarginRequest, 1, req.encode()));
  ASSERT_EQ(reply.type, MessageType::kMarginResponse);
  EXPECT_EQ(reply.request_id, 1u);
  const MarginResponse resp = MarginResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  // The service's answer is the closed-form projection of the device's
  // durable aging estimate — recompute it directly and demand equality.
  mc::MarginQuery query;
  query.delta_vth = service.state().devices[2].delta_vth;
  query.margin = service.state().margin;
  query.duty = req.duty;
  query.vdd = req.vdd;
  query.temp = req.temp;
  query.horizon = req.horizon;
  const mc::MarginOutlook outlook = mc::margin_outlook(
      bti::ClosedFormModel(service.config().physics), query);
  EXPECT_EQ(resp.crosses, outlook.crosses);
  EXPECT_EQ(resp.time_to_margin.value(), outlook.time_to_margin.value());
  EXPECT_EQ(resp.delta_vth.value(),
            service.state().devices[2].delta_vth.value());
}

TEST_F(ServiceTest, MarginBatchRowsMatchSingleMarginAnswersBitExactly) {
  Service service(small_config());
  MarginBatchRequest batch;
  batch.device_ids = {5, 0, 3, 5};  // out of order + repeated: both legal
  batch.duty = 0.75;
  batch.vdd = Volts{1.1};
  batch.temp = Celsius{95.0};
  const Frame reply = service.respond(
      request(MessageType::kMarginBatchRequest, 7, batch.encode()));
  ASSERT_EQ(reply.type, MessageType::kMarginBatchResponse);
  EXPECT_EQ(reply.request_id, 7u);
  const MarginBatchResponse resp = MarginBatchResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.margin.value(), service.state().margin.value());
  ASSERT_EQ(resp.rows.size(), batch.device_ids.size());
  for (std::size_t i = 0; i < batch.device_ids.size(); ++i) {
    MarginRequest solo;
    solo.device_id = batch.device_ids[i];
    solo.duty = batch.duty;
    solo.vdd = batch.vdd;
    solo.temp = batch.temp;
    solo.horizon = batch.horizon;
    const Frame solo_reply = service.respond(
        request(MessageType::kMarginRequest, 100 + i, solo.encode()));
    ASSERT_EQ(solo_reply.type, MessageType::kMarginResponse);
    const MarginResponse solo_resp = MarginResponse::parse(solo_reply.payload);
    EXPECT_EQ(resp.rows[i].device_id, batch.device_ids[i]);
    EXPECT_EQ(resp.rows[i].crosses, solo_resp.crosses) << "row " << i;
    EXPECT_EQ(resp.rows[i].time_to_margin.value(),
              solo_resp.time_to_margin.value())
        << "row " << i;
    EXPECT_EQ(resp.rows[i].delta_vth.value(), solo_resp.delta_vth.value())
        << "row " << i;
  }
}

TEST_F(ServiceTest, MarginBatchWithUnknownDeviceEarnsUnknownDeviceStatus) {
  Service service(small_config());
  MarginBatchRequest batch;
  batch.device_ids = {1, 999, 2};  // 999 does not exist: whole batch fails
  const Frame reply = service.respond(
      request(MessageType::kMarginBatchRequest, 8, batch.encode()));
  ASSERT_EQ(reply.type, MessageType::kErrorResponse);
  const ErrorResponse err = ErrorResponse::parse(reply.payload);
  EXPECT_EQ(err.status, Status::kUnknownDevice);
  EXPECT_NE(err.message.find("not tracked"), std::string::npos);
}

TEST_F(ServiceTest, UnknownDeviceEarnsUnknownDeviceStatus) {
  Service service(small_config());
  MarginRequest req;
  req.device_id = 999;  // only 8 devices exist
  const Frame reply = service.respond(
      request(MessageType::kMarginRequest, 2, req.encode()));
  ASSERT_EQ(reply.type, MessageType::kErrorResponse);
  const ErrorResponse err = ErrorResponse::parse(reply.payload);
  EXPECT_EQ(err.status, Status::kUnknownDevice);
  EXPECT_NE(err.message.find("not tracked"), std::string::npos);
}

TEST_F(ServiceTest, HostilePayloadEarnsErrorResponseNeverThrows) {
  Service service(small_config());
  const std::vector<std::string> hostile = {
      "",                        // missing every field
      "duty 0.5\n",              // missing fields
      "device 0\nduty 2.0\nvdd_v 1.2\ntemp_c 80\nhorizon_s 1\n",  // range
      std::string(512, '\xff'),  // binary garbage
      "device 0 device 0\n",     // malformed line
  };
  for (const std::string& payload : hostile) {
    Frame reply;
    ASSERT_NO_THROW(
        reply = service.respond(
            request(MessageType::kMarginRequest, 3, payload)))
        << "payload threw instead of answering";
    ASSERT_EQ(reply.type, MessageType::kErrorResponse);
    EXPECT_EQ(ErrorResponse::parse(reply.payload).status,
              Status::kBadRequest);
  }
}

TEST_F(ServiceTest, ScheduleSleepIsIdempotentAndByteStable) {
  Service service(small_config());
  ScheduleSleepRequest req;
  req.client_id = 42;
  req.device_id = 1;
  req.start = Seconds{3600.0};
  const Frame first = service.respond(
      request(MessageType::kScheduleSleepRequest, 10, req.encode()));
  ASSERT_EQ(first.type, MessageType::kScheduleSleepResponse);
  const ScheduleSleepResponse ack =
      ScheduleSleepResponse::parse(first.payload);
  EXPECT_EQ(ack.status, Status::kOk);
  EXPECT_TRUE(ack.newly_applied);
  EXPECT_EQ(ack.windows, 1u);
  EXPECT_EQ(service.state().sequence, 1u);
  EXPECT_EQ(service.stats().mutations, 1u);

  // The retry: same (client, request id) — the replay must reproduce the
  // ORIGINAL acknowledgement bytes and must not double-book the window.
  const Frame retry = service.respond(
      request(MessageType::kScheduleSleepRequest, 10, req.encode()));
  EXPECT_EQ(retry.payload, first.payload);
  EXPECT_EQ(retry.request_id, first.request_id);
  EXPECT_EQ(service.state().devices[1].windows.size(), 1u);
  EXPECT_EQ(service.state().sequence, 1u);
  EXPECT_EQ(service.stats().replays, 1u);

  // A different request id from the same client is a new booking.
  const Frame second = service.respond(
      request(MessageType::kScheduleSleepRequest, 11, req.encode()));
  EXPECT_EQ(ScheduleSleepResponse::parse(second.payload).windows, 2u);
  EXPECT_EQ(service.state().sequence, 2u);
}

TEST_F(ServiceTest, MutationIsDurableBeforeTheAck) {
  // Write-ahead contract: once respond() returns the acknowledgement, a
  // brand-new Service over the same state_dir (the SIGKILL-and-restart
  // path) must already know the mutation AND replay the same ack bytes.
  const ServiceConfig config = small_config();
  std::string first_payload;
  {
    Service service(config);
    ScheduleSleepRequest req;
    req.client_id = 7;
    req.device_id = 3;
    first_payload =
        service
            .respond(request(MessageType::kScheduleSleepRequest, 5,
                             req.encode()))
            .payload;
  }
  Service reborn(config);
  EXPECT_EQ(reborn.state().sequence, 1u);
  EXPECT_EQ(reborn.state().devices[3].windows.size(), 1u);
  ScheduleSleepRequest req;
  req.client_id = 7;
  req.device_id = 3;
  const Frame replay = reborn.respond(
      request(MessageType::kScheduleSleepRequest, 5, req.encode()));
  EXPECT_EQ(replay.payload, first_payload);
  EXPECT_EQ(reborn.state().sequence, 1u);  // not double-applied
}

TEST_F(ServiceTest, BoundedQueueShedsExactlyTheOverflow) {
  Service service(small_config());  // max_request_queue = 4
  std::vector<Frame> requests;
  for (std::uint64_t i = 0; i < 9; ++i) {
    requests.push_back(request(MessageType::kPingRequest, 100 + i, ""));
  }
  const std::vector<Frame> replies = service.process_tick(requests);
  ASSERT_EQ(replies.size(), 9u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].request_id, 100 + i);  // 1:1, in order
    if (i < 4) {
      EXPECT_EQ(replies[i].type, MessageType::kPingResponse);
    } else {
      ASSERT_EQ(replies[i].type, MessageType::kErrorResponse);
      EXPECT_EQ(ErrorResponse::parse(replies[i].payload).status,
                Status::kOverloaded);
    }
  }
  EXPECT_EQ(service.stats().requests, 4u);
  EXPECT_EQ(service.stats().shed, 5u);
}

TEST_F(ServiceTest, RejuvenationWithNoCampaignSaysNone) {
  Service service(small_config());  // no campaign_dir configured
  const Frame reply = service.respond(request(
      MessageType::kRejuvenationRequest, 20, RejuvenationRequest().encode()));
  const RejuvenationResponse resp =
      RejuvenationResponse::parse(reply.payload);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_FALSE(resp.any);
  EXPECT_EQ(resp.shard_id, -1);
}

TEST_F(ServiceTest, StatusReportsDurableStateOnly) {
  Service service(small_config());
  const Frame reply = service.respond(
      request(MessageType::kStatusRequest, 30, StatusRequest().encode()));
  const StatusResponse resp = StatusResponse::parse(reply.payload);
  EXPECT_EQ(resp.devices, 8u);
  EXPECT_EQ(resp.windows, 0u);
  EXPECT_EQ(resp.sequence, 0u);
  EXPECT_FALSE(resp.draining);
  // The payload must not contain any operational tally (those are
  // chaos-dependent and live in metrics instead).
  EXPECT_EQ(reply.payload.find("requests"), std::string::npos);
  EXPECT_EQ(reply.payload.find("evictions"), std::string::npos);
}

TEST_F(ServiceTest, StatsPublishMirrorsTheStruct) {
  Service service(small_config());
  (void)service.process_tick(
      {request(MessageType::kPingRequest, 1, std::string())});
  obs::Registry registry;
  service.stats().publish(registry);
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("fleet.service.requests"), 1u);
  EXPECT_EQ(snapshot.counter("fleet.service.responses"), 1u);
  EXPECT_EQ(snapshot.counter("fleet.service.shed"), 0u);
}

TEST_F(ServiceTest, RestartAfterGenesisIsStable) {
  const ServiceConfig config = small_config();
  std::string first;
  {
    Service service(config);
    first = service.state().serialize();
  }
  // Same dir, same seed: the reborn service resumes the SAME durable state
  // (from the snapshot, not a re-roll of genesis).
  Service reborn(config);
  EXPECT_EQ(reborn.state().serialize(), first);
}

TEST_F(ServiceTest, NonsensicalTunablesAreRejected) {
  ServiceConfig config = small_config();
  config.max_request_queue = 0;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.io_timeout_ms = -5;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.devices = 0;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config = small_config();
  config.state_dir = dir_ + "/missing";
  EXPECT_THROW(Service{config}, std::runtime_error);
  config = small_config();
  config.socket_path = dir_ + "/" + std::string(200, 'x') + ".sock";
  EXPECT_THROW(Service{config}, std::invalid_argument);
}

TEST_F(ServiceTest, DeviceCountAboveTheLimitIsRejected) {
  ServiceConfig config = small_config();
  config.devices = kMaxServiceDevices + 1;
  EXPECT_THROW(Service{config}, std::invalid_argument);
  config.devices = std::uint64_t{1} << 40;
  EXPECT_THROW(Service{config}, std::invalid_argument);
}

}  // namespace
}  // namespace ash::fleet
