/// The write-ahead journal behind fleet::Service: torn-write sweeps over
/// the frame prefix decoder, the Journal file and a restarting Service,
/// crash points inside compaction, and restart equivalence — the state is
/// a pure function of genesis + mutations, whatever mix of snapshot and
/// journal a restart recovers it from.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ash/fleet/checkpoint_store.h"
#include "ash/fleet/protocol.h"
#include "ash/fleet/service.h"
#include "ash/util/atomic_file.h"
#include "ash/util/random.h"

namespace ash::fleet {
namespace {

constexpr int kStateShard = 0;  // the shard id Service stores its state under

/// mkdtemp fixture with in-process Service helpers.
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_journal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A fresh, empty state directory under the fixture root.
  std::string state_dir(const std::string& name) const {
    const std::string path = dir_ + "/" + name;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
  }

  ServiceConfig config(const std::string& state_dir) const {
    ServiceConfig c;
    c.socket_path = dir_ + "/unused.sock";
    c.state_dir = state_dir;
    c.devices = 8;
    c.seed = 0x10A5;
    c.instrument = false;
    return c;
  }

  std::string dir_;
};

Frame sleep_request(const SleepMutation& m) {
  ScheduleSleepRequest req;
  req.client_id = m.client_id;
  req.device_id = m.device_id;
  req.start = m.window.start;
  req.duration = m.window.duration;
  return Frame{MessageType::kScheduleSleepRequest, m.request_id,
               req.encode()};
}

SleepMutation mutation(std::uint64_t client, std::uint64_t request,
                       std::uint64_t device, double start_s) {
  return SleepMutation{client, request, device,
                       SleepWindow{Seconds{start_s}, Seconds{3600.0}}};
}

/// Three frames laid end to end, and where each one ends.
struct ThreeRecords {
  std::string bytes;
  std::vector<std::size_t> ends;
  std::vector<SleepMutation> mutations;
};

ThreeRecords three_records() {
  ThreeRecords r;
  r.mutations = {mutation(1, 1, 2, 100.0), mutation(1, 2, 5, 200.5),
                 mutation(2, 1, 2, 1.0 / 3.0)};
  for (std::size_t i = 0; i < r.mutations.size(); ++i) {
    r.bytes += frame_snapshot(kStateShard, i + 1, r.mutations[i].encode());
    r.ends.push_back(r.bytes.size());
  }
  return r;
}

/// Records wholly inside the first `cut` bytes.
std::size_t whole_records(const ThreeRecords& r, std::size_t cut) {
  std::size_t n = 0;
  while (n < r.ends.size() && r.ends[n] <= cut) ++n;
  return n;
}

void expect_records(const SnapshotPrefix& prefix, const ThreeRecords& r,
                    std::size_t n, const std::string& where) {
  ASSERT_EQ(prefix.frames.size(), n) << where;
  EXPECT_EQ(prefix.valid_bytes, n == 0 ? 0 : r.ends[n - 1]) << where;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(prefix.frames[i].sequence, i + 1) << where;
    EXPECT_EQ(prefix.frames[i].payload, r.mutations[i].encode()) << where;
  }
}

TEST(JournalPrefix, CutAtEveryByteKeepsExactlyTheWholeRecords) {
  const ThreeRecords r = three_records();
  for (std::size_t cut = 0; cut <= r.bytes.size(); ++cut) {
    expect_records(decode_snapshot_prefix(r.bytes.substr(0, cut)), r,
                   whole_records(r, cut), "cut " + std::to_string(cut));
  }
}

TEST(JournalPrefix, AppendedGarbageIsNotARecord) {
  const ThreeRecords r = three_records();
  for (const std::string& garbage :
       {std::string("x"), std::string(39, '\0'), std::string(200, '\xff'),
        r.bytes.substr(0, r.ends[0] - 1)}) {
    expect_records(decode_snapshot_prefix(r.bytes + garbage), r, 3,
                   "garbage of " + std::to_string(garbage.size()));
  }
}

TEST(JournalPrefix, AnyBitFlipInTheMiddleRecordEndsThePrefixBeforeIt) {
  const ThreeRecords r = three_records();
  for (std::size_t bit = r.ends[0] * 8; bit < r.ends[1] * 8; ++bit) {
    std::string bad = r.bytes;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    expect_records(decode_snapshot_prefix(bad), r, 1,
                   "bit " + std::to_string(bit));
  }
}

TEST_F(JournalTest, OpenCutsTheTornTailAndAppendsAfterTheLastRecord) {
  const ThreeRecords r = three_records();
  const std::string path = dir_ + "/j.wal";
  for (std::size_t cut = 0; cut <= r.bytes.size(); ++cut) {
    const std::string where = "cut " + std::to_string(cut);
    util::atomic_write_file(path, r.bytes.substr(0, cut));
    const std::size_t kept = whole_records(r, cut);
    {
      Journal journal(path, Journal::records(path).valid_bytes);
      EXPECT_EQ(journal.bytes(), kept == 0 ? 0 : r.ends[kept - 1]) << where;
      journal.append(kStateShard, kept + 1, "next\n");
    }
    const SnapshotPrefix after = Journal::records(path);
    ASSERT_EQ(after.frames.size(), kept + 1) << where;
    EXPECT_EQ(after.valid_bytes, util::read_file(path).size()) << where;
    EXPECT_EQ(after.frames.back().sequence, kept + 1) << where;
    EXPECT_EQ(after.frames.back().payload, "next\n") << where;
  }
}

/// A state directory as a daemon would leave it: the genesis snapshot and a
/// journal based at 0 holding `journal` (record i has sequence i + 1).
void write_state_dir(const std::string& dir, const ServiceConfig& config,
                     const std::string& journal) {
  const CheckpointStore store(dir);
  store.save(kStateShard, 0,
             ServiceState::genesis(config.devices, config.margin, config.seed)
                 .serialize());
  util::atomic_write_file(store.journal_path(kStateShard, 0), journal);
}

/// Genesis with the first `n` mutations applied.
std::string expected_state(const ServiceConfig& config,
                           const std::vector<SleepMutation>& mutations,
                           std::size_t n) {
  ServiceState state =
      ServiceState::genesis(config.devices, config.margin, config.seed);
  for (std::size_t i = 0; i < n; ++i) (void)state.apply(mutations[i]);
  return state.serialize();
}

/// Restart over a damaged journal: exactly the whole records before the
/// damage are recovered; the restarted daemon then appends a mutation, and
/// a second restart recovers the old prefix plus the new record.
void restart_twice(const ServiceConfig& config, const ThreeRecords& r,
                   const std::string& journal, std::size_t kept,
                   const std::string& where) {
  write_state_dir(config.state_dir, config, journal);
  std::vector<SleepMutation> applied(r.mutations.begin(),
                                     r.mutations.begin() +
                                         static_cast<std::ptrdiff_t>(kept));
  std::string live;
  {
    Service first(config);
    ASSERT_EQ(first.state().serialize(),
              expected_state(config, r.mutations, kept))
        << where;
    const SleepMutation next = mutation(9, 1, 7, 50.0);
    const Frame ack = first.respond(sleep_request(next));
    ASSERT_EQ(ack.type, MessageType::kScheduleSleepResponse) << where;
    applied.push_back(next);
    live = first.state().serialize();
    ASSERT_EQ(live, expected_state(config, applied, applied.size())) << where;
  }
  Service second(config);
  EXPECT_EQ(second.state().serialize(), live) << where;
}

TEST_F(JournalTest, RestartAfterACutAtEveryByteRecoversTheWholeRecords) {
  const ThreeRecords r = three_records();
  const ServiceConfig c = config(dir_ + "/state");
  for (std::size_t cut = 0; cut <= r.bytes.size(); ++cut) {
    std::filesystem::remove_all(c.state_dir);
    std::filesystem::create_directories(c.state_dir);
    restart_twice(c, r, r.bytes.substr(0, cut), whole_records(r, cut),
                  "cut " + std::to_string(cut));
  }
}

TEST_F(JournalTest, RestartAfterAppendedGarbageRecoversEveryRecord) {
  const ThreeRecords r = three_records();
  const ServiceConfig c = config(state_dir("garbage"));
  restart_twice(c, r, r.bytes + std::string(57, '\x5a'), 3, "garbage");
}

TEST_F(JournalTest, RestartAfterABitFlipInTheMiddleRecordKeepsTheFirst) {
  const ThreeRecords r = three_records();
  const ServiceConfig c = config(dir_ + "/state");
  // One bit in the header, and one in the payload, of the middle record.
  for (const std::size_t at : {r.ends[0] + 20, r.ends[1] - 3}) {
    std::filesystem::remove_all(c.state_dir);
    std::filesystem::create_directories(c.state_dir);
    std::string bad = r.bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    restart_twice(c, r, bad, 1, "flip at byte " + std::to_string(at));
  }
}

TEST_F(JournalTest, CrashBetweenCompactionStepsNeverAppliesARecordTwice) {
  // The compaction wrote its snapshot, then the daemon died before it
  // rotated the journal: the old journal still holds records at or below
  // the snapshot's sequence.  They must be skipped, and a record past the
  // snapshot (snapshot at 2, journal up to 3) still applied.
  const ThreeRecords r = three_records();
  for (const std::size_t snapshot_at : {std::size_t{2}, std::size_t{3}}) {
    const ServiceConfig c =
        config(state_dir("compaction" + std::to_string(snapshot_at)));
    write_state_dir(c.state_dir, c, r.bytes);
    ServiceState at = ServiceState::deserialize(
        expected_state(c, r.mutations, snapshot_at));
    CheckpointStore(c.state_dir)
        .save(kStateShard, at.sequence, at.serialize());
    std::string live;
    {
      Service first(c);
      EXPECT_EQ(first.state().sequence, 3u);
      EXPECT_EQ(first.state().total_windows(), 3u);
      EXPECT_EQ(first.state().serialize(), expected_state(c, r.mutations, 3));
      (void)first.respond(sleep_request(mutation(9, 1, 0, 5.0)));
      EXPECT_EQ(first.state().sequence, 4u);
      live = first.state().serialize();
    }
    Service second(c);
    EXPECT_EQ(second.state().serialize(), live);
  }
}

/// Replay must stop after the first record of `journal` and the next
/// mutation must survive a second restart.
void expect_replay_stops_after_one(const ServiceConfig& c,
                                   const ThreeRecords& r,
                                   const std::string& journal,
                                   const std::string& where) {
  write_state_dir(c.state_dir, c, journal);
  std::string live;
  {
    Service first(c);
    EXPECT_EQ(first.state().serialize(), expected_state(c, r.mutations, 1))
        << where;
    (void)first.respond(sleep_request(mutation(9, 1, 0, 5.0)));
    EXPECT_EQ(first.state().sequence, 2u) << where;
    live = first.state().serialize();
  }
  Service second(c);
  EXPECT_EQ(second.state().serialize(), live) << where;
}

TEST_F(JournalTest, ACrcValidRecordNoDaemonCouldWriteEndsTheReplay) {
  // A frame with a valid CRC but a payload no daemon could have written is
  // damage too: replay stops before it and the journal is started afresh.
  const ThreeRecords r = three_records();
  const std::string head = r.bytes.substr(0, r.ends[0]);
  const std::string tail = r.bytes.substr(r.ends[1]);
  const std::string untracked = mutation(1, 2, 8, 0.0).encode();
  const ServiceConfig c = config(dir_ + "/state");
  for (const std::string& payload : {untracked, std::string("garbage\n")}) {
    std::filesystem::remove_all(c.state_dir);
    std::filesystem::create_directories(c.state_dir);
    expect_replay_stops_after_one(
        c, r, head + frame_snapshot(kStateShard, 2, payload) + tail,
        "payload " + payload);
  }
}

TEST_F(JournalTest, ARecordPastASequenceGapIsNeverApplied) {
  // Record 2 is missing (say, the snapshots that covered it failed to
  // verify): record 3 must not be applied on top of record 1.
  const ThreeRecords r = three_records();
  const ServiceConfig c = config(state_dir("gap"));
  expect_replay_stops_after_one(
      c, r, r.bytes.substr(0, r.ends[0]) + r.bytes.substr(r.ends[1]), "gap");
}

TEST_F(JournalTest, AVersionOneStateDirectoryIsRefusedByName) {
  const ServiceConfig c = config(state_dir("v1"));
  CheckpointStore(c.state_dir)
      .save(kStateShard, 0,
            "ash-fleet-service v1\nsequence 0\nmargin_v 0.012\ndevices 1\n"
            "device 0 0.001\nend\n");
  try {
    Service service(c);
    FAIL() << "a v1 state directory was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'v1'"), std::string::npos)
        << e.what();
  }
}

TEST_F(JournalTest, AVersionTwoStateDirectoryIsRefusedByName) {
  // A v2 directory as v2 left it: its snapshot and a journal record whose
  // %.17g doubles are not the canonical bytes v3 replays.
  const ServiceConfig c = config(state_dir("v2"));
  CheckpointStore(c.state_dir)
      .save(kStateShard, 0,
            "ash-fleet-service v2\nsequence 0\nmargin_v 0.012\ndevices 8\n"
            "seed 4261\nend\n");
  Journal(CheckpointStore(c.state_dir).journal_path(kStateShard, 0), 0)
      .append(kStateShard, 1, "0 1 2 0.10000000000000001 3600\n");
  try {
    Service service(c);
    FAIL() << "a v2 state directory was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'v2'"), std::string::npos)
        << e.what();
  }
}

TEST_F(JournalTest, ASnapshotClaimingAbsurdlyManyDevicesIsRefused) {
  const ServiceConfig c = config(state_dir("absurd"));
  CheckpointStore(c.state_dir)
      .save(kStateShard, 0,
            "ash-fleet-service v3\nsequence 0\nmargin_v 0.012\n"
            "devices 1099511627776\nseed 4261\nend\n");
  try {
    Service service(c);
    FAIL() << "a snapshot of 2^40 devices was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("above the limit"), std::string::npos)
        << e.what();
  }
}

/// Copy the state files (snapshots and journals) of `from` into a fresh
/// directory: a restart that cannot touch the live daemon's files.
std::string copy_state(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::create_directories(to);
  for (const auto& entry : std::filesystem::directory_iterator(from)) {
    std::filesystem::copy_file(entry.path(), to + "/" +
                                                 entry.path().filename().string());
  }
  return to;
}

TEST_F(JournalTest, RestartIsEquivalentToTheLiveStateAcrossCompactions) {
  const ServiceConfig c = config(state_dir("live"));
  Service live(c);
  Rng rng(0x5EED);
  std::map<std::pair<std::uint64_t, std::uint64_t>, Frame> acks;
  std::vector<SleepMutation> sent;
  std::uint64_t next_id[3] = {1, 1, 1};
  bool journal_only_checked = false;
  int compactions_checked = 0;
  std::uint64_t snapshots_at_last_check = live.stats().snapshots_saved;

  const auto check = [&](int step) {
    const std::string where = "step " + std::to_string(step);
    ServiceConfig restarted = c;
    restarted.state_dir =
        copy_state(c.state_dir, dir_ + "/restart" + std::to_string(step));
    Service reborn(restarted);
    ASSERT_EQ(reborn.state().serialize(), live.state().serialize()) << where;
    // Every retried id answers with the first delivery's bytes, mutating
    // nothing.
    for (const SleepMutation& m : sent) {
      const Frame replay = reborn.respond(sleep_request(m));
      const Frame& first = acks.at({m.client_id, m.request_id});
      EXPECT_EQ(replay.type, first.type) << where;
      EXPECT_EQ(replay.payload, first.payload) << where;
    }
    EXPECT_EQ(reborn.state().serialize(), live.state().serialize()) << where;
    journal_only_checked |= live.stats().snapshots_saved == 1;
    compactions_checked +=
        live.stats().snapshots_saved > snapshots_at_last_check ? 1 : 0;
    snapshots_at_last_check = live.stats().snapshots_saved;
  };

  constexpr int kSteps = 400;
  for (int step = 1; step <= kSteps; ++step) {
    if (!sent.empty() && rng.uniform(0.0, 1.0) < 0.2) {
      // A retry of an earlier id: the original ack, nothing re-applied.
      const SleepMutation& m = sent[rng.uniform_index(sent.size())];
      const std::uint64_t before = live.state().sequence;
      const Frame replay = live.respond(sleep_request(m));
      EXPECT_EQ(replay.payload, acks.at({m.client_id, m.request_id}).payload);
      EXPECT_EQ(live.state().sequence, before);
    } else {
      const std::uint64_t client = rng.uniform_index(3);
      const SleepMutation m =
          mutation(client + 1, next_id[client]++, rng.uniform_index(8),
                   rng.uniform(0.0, 720.0) * 3600.0);
      const Frame ack = live.respond(sleep_request(m));
      ASSERT_EQ(ack.type, MessageType::kScheduleSleepResponse);
      acks.emplace(std::make_pair(m.client_id, m.request_id), ack);
      sent.push_back(m);
    }
    if (step <= 3 || step % 100 == 0) check(step);
  }
  EXPECT_EQ(live.snapshot_lag(), 0u);
  EXPECT_TRUE(journal_only_checked)
      << "no check recovered from the genesis snapshot plus journal alone";
  EXPECT_GE(compactions_checked, 2) << "fewer than two checks spanned a "
                                       "compaction";
}

TEST_F(JournalTest, CompactionKeepsAtMostTwoJournals) {
  const ServiceConfig c = config(state_dir("retention"));
  Service live(c);
  for (std::uint64_t id = 1; id <= 200; ++id) {
    (void)live.respond(sleep_request(mutation(1, id, id % 8, 1.0 * id)));
    EXPECT_LE(CheckpointStore(c.state_dir).journal_files(kStateShard).size(),
              2u);
  }
  // The journal past the newest snapshot never outgrows both that
  // snapshot and the service's one-block compaction floor.
  const CheckpointStore store(c.state_dir);
  const auto loaded = store.load_newest_valid(kStateShard);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_GT(loaded->sequence, 0u) << "200 mutations never compacted";
  const std::string newest =
      store.journal_files(kStateShard).rbegin()->second;
  EXPECT_LE(util::read_file(newest).size(),
            std::max<std::size_t>(kSnapshotHeaderSize + loaded->payload.size(),
                                  4096));
}

}  // namespace
}  // namespace ash::fleet
