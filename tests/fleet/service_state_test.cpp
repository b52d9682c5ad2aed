/// The `ash-fleet-service v3` state document: sparse (priors are rebuilt
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

TEST(ServiceStateDocument, RefusesAVersionTwoDocumentByName) {
  // v2 wrote doubles with %.17g; v3 reads only the shortest round-trip
  // form, so a v2 document is refused whole rather than half-understood.
  const std::string v2 =
      "ash-fleet-service v2\nsequence 1\nmargin_v 0.012\ndevices 4\n"
      "seed 7\nwindow 2 0.10000000000000001 3600\napplied 3 11 1\nend\n";
  const std::string message = rejection(v2);
  EXPECT_NE(message.find("unsupported document version 'v2'"),
            std::string::npos)
      << message;
}

TEST(ServiceStateDocument, RefusesAnAbsurdDeviceCountBeforeAllocating) {
  // CRC-valid is not sane: 2^40 devices would be a 32 TiB device table.
  const std::string doc =
      "ash-fleet-service v3\nsequence 0\nmargin_v 0.012\n"
      "devices 1099511627776\nseed 7\nend\n";
  const std::string message = rejection(doc);
  EXPECT_NE(message.find("devices 1099511627776 above the limit of " +
                         std::to_string(kMaxServiceDevices)),
            std::string::npos)
      << message;
  EXPECT_NE(rejection("ash-fleet-service v3\nsequence 0\nmargin_v 0.012\n"
                      "devices " +
                      std::to_string(kMaxServiceDevices + 1) +
                      "\nseed 7\nend\n")
                .find("above the limit"),
            std::string::npos);
}

TEST(ServiceStateDocument, NumbersAreReadStrictly) {
  const std::string doc = good_document();
  const std::string margin_line = "margin_v 0.012\n";
  ASSERT_NE(doc.find(margin_line), std::string::npos) << doc;
  for (const char* spelling : {"+0.012", "0x1p-7", "1e-400", "inf", "nan"}) {
    std::string bad = doc;
    bad.replace(bad.find(margin_line), margin_line.size(),
                std::string("margin_v ") + spelling + "\n");
    EXPECT_NE(rejection(bad).find("field 'margin_v' not a finite number"),
              std::string::npos)
        << spelling;
  }
  // One space between tokens, as serialize() writes them.
  std::string doubled = doc;
  doubled.replace(doubled.find(margin_line), margin_line.size(),
                  "margin_v  0.012\n");
  EXPECT_NE(rejection(doubled), "");
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

TEST(SleepMutationRecord, StrtodOnlyNumberSpellingsAreAStateError) {
  for (const char* spelling : {" 1", "+1", "0x1p3", "1e-400", "1e400", "inf",
                               "nan"}) {
    for (const std::string& record :
         {std::string("0 0 2 ") + spelling + " 7200\n",
          std::string("0 0 2 3600 ") + spelling + "\n"}) {
      try {
        (void)SleepMutation::parse(record);
        ADD_FAILURE() << "accepted '" << record << "'";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).rfind("service state: ", 0), 0u)
            << e.what();
      }
    }
  }
}

TEST(SleepMutationRecord, AVersionTwoRecordIsNotCanonical) {
  // The same mutation as v2 wrote it (%.17g) and as v3 writes it: only the
  // v3 bytes replay, which is why the state format's version moved.
  SleepMutation m;
  m.device_id = 2;
  m.window = SleepWindow{Seconds{0.1}, Seconds{3600.0}};
  EXPECT_EQ(m.encode(), "0 0 2 0.1 3600\n");
  EXPECT_THROW((void)SleepMutation::parse("0 0 2 0.10000000000000001 3600\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace ash::fleet
