/// The `ash-fleet-service v2` state document: sparse (priors are rebuilt
/// through genesis) and strict — one negative test per rejection rule, so
/// a malformed document can never yield a partially filled state.

#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "ash/fleet/service.h"

namespace ash::fleet {
namespace {

/// A valid document with one window and one applied entry.
std::string good_document() {
  ServiceState state = ServiceState::genesis(4, Volts{12e-3}, 7);
  SleepMutation m;
  m.client_id = 3;
  m.request_id = 11;
  m.device_id = 2;
  m.window = SleepWindow{Seconds{3600.0}, Seconds{21600.0}};
  (void)state.apply(m);
  return state.serialize();
}

/// `doc` with `line` inserted before the first line starting with `before`.
std::string insert_before(const std::string& doc, const std::string& before,
                          const std::string& line) {
  const std::size_t at = doc.find("\n" + before);
  EXPECT_NE(at, std::string::npos) << "no '" << before << "' line";
  return doc.substr(0, at + 1) + line + "\n" + doc.substr(at + 1);
}

/// `doc` without its first line starting with `tag`.
std::string drop_line(const std::string& doc, const std::string& tag) {
  const std::size_t at = doc.find("\n" + tag);
  EXPECT_NE(at, std::string::npos) << "no '" << tag << "' line";
  const std::size_t end = doc.find('\n', at + 1);
  return doc.substr(0, at + 1) + doc.substr(end + 1);
}

/// The message deserialize() throws for `doc` ("" when it parses).
std::string rejection(const std::string& doc) {
  try {
    (void)ServiceState::deserialize(doc);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ServiceStateDocument, GoodDocumentRoundTrips) {
  const std::string doc = good_document();
  EXPECT_EQ(rejection(doc), "");
  EXPECT_EQ(ServiceState::deserialize(doc).serialize(), doc);
}

TEST(ServiceStateDocument, PriorsAreRebuiltThroughGenesis) {
  const ServiceState genesis = ServiceState::genesis(1000, Volts{12e-3}, 99);
  const ServiceState back = ServiceState::deserialize(genesis.serialize());
  EXPECT_EQ(back.seed, 99u);
  ASSERT_EQ(back.devices.size(), genesis.devices.size());
  for (std::size_t i = 0; i < genesis.devices.size(); ++i) {
    EXPECT_EQ(back.devices[i].delta_vth.value(),
              genesis.devices[i].delta_vth.value());
  }
}

TEST(ServiceStateDocument, SizeIsIndependentOfTheDeviceCount) {
  // Sparse: only the genesis config, non-empty windows and the idempotency
  // table are stored, never one line per device.
  const std::string small = ServiceState::genesis(16, Volts{12e-3}, 5)
                                .serialize();
  const std::string large = ServiceState::genesis(100000, Volts{12e-3}, 5)
                                .serialize();
  EXPECT_EQ(large.size(), small.size() + 4);  // "16" vs "100000"
  EXPECT_LT(large.size(), 128u);
}

TEST(ServiceStateDocument, RejectsDuplicateSequence) {
  EXPECT_NE(rejection(insert_before(good_document(), "margin_v",
                                    "sequence 1"))
                .find("duplicate 'sequence'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsDuplicateMargin) {
  EXPECT_NE(rejection(insert_before(good_document(), "devices",
                                    "margin_v 0.012"))
                .find("duplicate 'margin_v'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsDuplicateDevices) {
  EXPECT_NE(rejection(insert_before(good_document(), "seed", "devices 4"))
                .find("duplicate 'devices'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsDuplicateSeed) {
  EXPECT_NE(rejection(insert_before(good_document(), "window", "seed 7"))
                .find("duplicate 'seed'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsWindowBeforeDevices) {
  const std::string doc = insert_before(good_document(), "devices",
                                        "window 1 0 3600");
  EXPECT_NE(rejection(doc).find("'window' line before 'devices'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsAppliedBeforeDevices) {
  const std::string doc = insert_before(good_document(), "devices",
                                        "applied 3 12 1");
  EXPECT_NE(rejection(doc).find("'applied' line before 'devices'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RejectsDocumentWithoutSeed) {
  EXPECT_NE(rejection(drop_line(good_document(), "seed"))
                .find("missing 'seed'"),
            std::string::npos);
}

TEST(ServiceStateDocument, RefusesAVersionOneDocumentByName) {
  const std::string v1 =
      "ash-fleet-service v1\nsequence 0\nmargin_v 0.012\ndevices 1\n"
      "device 0 0.001\nend\n";
  const std::string message = rejection(v1);
  EXPECT_NE(message.find("unsupported document version 'v1'"),
            std::string::npos)
      << message;
}

TEST(ServiceStateDocument, RejectsTrailingTokens) {
  std::string doc = good_document();
  doc.replace(doc.find("\nend"), 1, " 9\n");  // "applied 3 11 1 9"
  EXPECT_NE(rejection(doc).find("trailing '9'"), std::string::npos);
}

TEST(ServiceStateDocument, RejectsWindowOfAnUntrackedDevice) {
  EXPECT_NE(rejection(insert_before(good_document(), "applied",
                                    "window 4 0 3600"))
                .find("window device out of range"),
            std::string::npos);
}

TEST(SleepMutationRecord, RoundTripsBitExactly) {
  SleepMutation m;
  m.client_id = ~std::uint64_t{0};
  m.request_id = 12345;
  m.device_id = 7;
  m.window = SleepWindow{Seconds{0.1}, Seconds{1.0 / 3.0}};
  const SleepMutation back = SleepMutation::parse(m.encode());
  EXPECT_EQ(back.encode(), m.encode());
  EXPECT_EQ(back.window.duration.value(), m.window.duration.value());
}

TEST(SleepMutationRecord, RejectsWhatEncodeCannotProduce) {
  SleepMutation m;
  m.device_id = 2;
  m.window = SleepWindow{Seconds{3600.0}, Seconds{7200.0}};
  const std::string good = m.encode();
  EXPECT_NO_THROW((void)SleepMutation::parse(good));
  for (const std::string& bad :
       {std::string(""), good.substr(0, good.size() - 1), good + "x",
        std::string("0 0 2 3600 7200 1\n"), std::string("0 0 2 3600 nan\n"),
        std::string("0 0 2 3.6e3 7200\n")}) {
    EXPECT_THROW((void)SleepMutation::parse(bad), std::runtime_error)
        << "accepted '" << bad << "'";
  }
}

}  // namespace
}  // namespace ash::fleet
