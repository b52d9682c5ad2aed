#include "ash/fleet/checkpoint_store.h"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"
#include "ash/util/random.h"
#include "support/fuzz.h"

namespace ash::fleet {
namespace {

/// mkdtemp fixture: each test gets a private directory.
class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_ckpt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  std::string dir_;
};

/// A payload with embedded NULs, newlines and high bytes — framing must be
/// 8-bit clean.
std::string binary_payload() {
  std::string p = "campaign checkpoint v1\n";
  p.push_back('\0');
  p += "\xff\xfe line2\n";
  p.push_back('\0');
  return p;
}

TEST(SnapshotFrame, RoundTripIsBitExact) {
  const std::string payload = binary_payload();
  const std::string frame = frame_snapshot(7, 42, payload);
  const DecodedSnapshot snap = decode_snapshot(frame);
  EXPECT_EQ(snap.shard_id, 7);
  EXPECT_EQ(snap.sequence, 42u);
  EXPECT_EQ(snap.payload, payload);
}

TEST(SnapshotFrame, EmptyPayloadRoundTrips) {
  const std::string frame = frame_snapshot(0, 0, "");
  const DecodedSnapshot snap = decode_snapshot(frame);
  EXPECT_EQ(snap.payload, "");
}

TEST(SnapshotFrame, TruncationAtEveryByteBoundaryIsRejected) {
  // The torn-write acceptance sweep: a frame cut at ANY byte boundary —
  // mid-magic, mid-header, mid-payload — must be rejected, never decoded
  // into a partial snapshot.
  const std::string frame = frame_snapshot(3, 9, binary_payload());
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(decode_snapshot(frame.substr(0, cut)), CorruptSnapshot)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_NO_THROW(decode_snapshot(frame));
}

TEST(SnapshotFrame, EveryAppendedGarbageByteIsRejected) {
  const std::string frame = frame_snapshot(3, 9, binary_payload());
  EXPECT_THROW(decode_snapshot(frame + 'x'), CorruptSnapshot);
  EXPECT_THROW(decode_snapshot(frame + frame), CorruptSnapshot);
}

TEST(SnapshotFrame, EverySingleBitFlipIsRejected) {
  // CRC32 detects all single-bit errors; sweep every bit of header AND
  // payload.
  const std::string frame = frame_snapshot(1, 5, "short payload");
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::string bad = frame;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_THROW(decode_snapshot(bad), CorruptSnapshot)
        << "bit " << bit << " flip decoded";
  }
}

TEST(SnapshotFrame, ErrorMessagesNameTheFailure) {
  const std::string frame = frame_snapshot(1, 5, binary_payload());
  try {
    decode_snapshot(frame.substr(0, 10));
    FAIL() << "torn header decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
  try {
    decode_snapshot(frame.substr(0, frame.size() - 3));
    FAIL() << "torn payload decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("torn write"), std::string::npos);
  }
  try {
    decode_snapshot(frame + "zz");
    FAIL() << "trailing garbage decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("trailing garbage"),
              std::string::npos);
  }
  try {
    decode_snapshot("not a snapshot at all, but long enough to have a header");
    FAIL() << "foreign bytes decoded";
  } catch (const CorruptSnapshot& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST_F(CheckpointStoreTest, SaveLoadRoundTrip) {
  const CheckpointStore store(dir_);
  const std::string payload = binary_payload();
  store.save(4, 17, payload);
  const auto loaded = store.load_newest_valid(4);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 17u);
  EXPECT_EQ(loaded->payload, payload);
  EXPECT_EQ(loaded->corrupt_skipped, 0);
}

TEST_F(CheckpointStoreTest, MissingDirectoryThrows) {
  EXPECT_THROW(CheckpointStore(dir_ + "/nope"), std::runtime_error);
}

TEST_F(CheckpointStoreTest, EmptyStoreLoadsNothing) {
  const CheckpointStore store(dir_);
  EXPECT_FALSE(store.load_newest_valid(0).has_value());
}

TEST_F(CheckpointStoreTest, NewestSequenceWins) {
  const CheckpointStore store(dir_);
  store.save(2, 1, "one");
  store.save(2, 3, "three");
  store.save(2, 2, "two");
  const auto loaded = store.load_newest_valid(2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 3u);
  EXPECT_EQ(loaded->payload, "three");
}

TEST_F(CheckpointStoreTest, CorruptNewestFallsBackToPreviousValid) {
  const CheckpointStore store(dir_);
  store.save(2, 1, "one");
  store.save(2, 2, "two");
  const std::string newest = store.save(2, 3, "three");
  // Tear the newest file mid-payload.
  const std::string bytes = util::read_file(newest);
  // Deliberately torn write; the store must reject it, not us.
  std::ofstream os(newest,  // ash-lint: allow(unchecked-io): torn write is the test
                   std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 2));
  os.close();
  const auto loaded = store.load_newest_valid(2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 2u);
  EXPECT_EQ(loaded->payload, "two");
  EXPECT_EQ(loaded->corrupt_skipped, 1);
}

TEST_F(CheckpointStoreTest, AllCorruptLoadsNothingAndCountsSkips) {
  const CheckpointStore store(dir_);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const std::string path = store.save(9, seq, "payload");
    // Deliberate corruption; short writes here are the point.
    std::ofstream os(path,  // ash-lint: allow(unchecked-io): torn write is the test
                    std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  EXPECT_FALSE(store.load_newest_valid(9).has_value());
}

TEST_F(CheckpointStoreTest, ShardsAreIsolated) {
  const CheckpointStore store(dir_);
  store.save(1, 5, "shard one");
  store.save(2, 9, "shard two");
  const auto one = store.load_newest_valid(1);
  const auto two = store.load_newest_valid(2);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(one->payload, "shard one");
  EXPECT_EQ(two->payload, "shard two");
  EXPECT_FALSE(store.load_newest_valid(3).has_value());
}

TEST_F(CheckpointStoreTest, MisfiledFrameIsSkipped) {
  // A frame that *verifies* but names another shard must not be loaded —
  // defends against a file copied/renamed into the wrong slot.
  const CheckpointStore store(dir_);
  util::atomic_write_file(dir_ + "/" + CheckpointStore::file_name(5, 2),
                          frame_snapshot(6, 2, "imposter"));
  store.save(5, 1, "legit");
  const auto loaded = store.load_newest_valid(5);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, "legit");
  EXPECT_EQ(loaded->corrupt_skipped, 1);
}

TEST_F(CheckpointStoreTest, SequenceBeyondU64IsSkippedNotNewest) {
  // 21 digits do not fit a u64; such a name is malformed like any other,
  // never saturated to the largest sequence and tried first.
  const CheckpointStore store(dir_);
  const std::string valid = store.save(0, 5, "five");
  util::atomic_write_file(dir_ + "/shard-00000.seq-184467440737095516160.ckpt",
                          util::read_file(valid));
  util::atomic_write_file(dir_ + "/shard-00000.seq-18446744073709551615.ckpt",
                          "garbage");
  const auto files = store.shard_files(0);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], valid);
  const auto loaded = store.load_newest_valid(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 5u);
  EXPECT_EQ(loaded->corrupt_skipped, 1);  // the UINT64_MAX name, nothing else
}

TEST_F(CheckpointStoreTest, PruneKeepsNewest) {
  const CheckpointStore store(dir_);
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    const std::string index = std::to_string(seq);
    store.save(0, seq, "p" + index);
  }
  store.prune(0, 2);
  const auto files = store.shard_files(0);
  ASSERT_EQ(files.size(), 2u);
  const auto loaded = store.load_newest_valid(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 5u);
}

TEST_F(CheckpointStoreTest, SaveIsAtomicNoTempFilesRemain) {
  const CheckpointStore store(dir_);
  store.save(0, 1, binary_payload());
  // Only the final name may exist — no .tmp litter from the write path.
  const auto files = store.shard_files(0);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find(".ckpt"), std::string::npos);
}

constexpr int kFrameMutants = 3000;

std::string reframe(const DecodedSnapshot& d) {
  return frame_snapshot(d.shard_id, d.sequence, d.payload);
}

/// Single frames and a three-record journal, 8-bit payloads included.
std::vector<std::string> frame_corpus() {
  return {frame_snapshot(0, 0, ""), frame_snapshot(7, 42, binary_payload()),
          frame_snapshot(3, 0x100000001u, "device 2 windows 1\n"),
          frame_snapshot(0, 2, "a b\n") + frame_snapshot(0, 3, "c d e\n") +
              frame_snapshot(0, 4, binary_payload())};
}

/// decode_snapshot: refused with CorruptSnapshot, or a round trip.
fuzz::Outcome decode_whole(const std::string& bytes) {
  return fuzz::reject_or_round_trip<CorruptSnapshot>(
      bytes, [](const std::string& b) { return decode_snapshot(b); }, reframe);
}

/// decode_snapshot_prefix never throws (the sweep fails on any exception)
/// and yields only whole records; taking the whole input is a round trip.
fuzz::Outcome decode_prefix(const std::string& bytes) {
  const SnapshotPrefix prefix = decode_snapshot_prefix(bytes);
  std::string covered;
  for (const DecodedSnapshot& frame : prefix.frames) covered += reframe(frame);
  EXPECT_EQ(prefix.valid_bytes, covered.size());
  EXPECT_EQ(bytes.compare(0, covered.size(), covered), 0)
      << "a record not wholly in the input";
  return prefix.valid_bytes == bytes.size() ? fuzz::Outcome::kRoundTripped
                                            : fuzz::Outcome::kRejected;
}

TEST(SnapshotFuzz, SplicedFramesAreRejectedOrYieldWholeRecords) {
  fuzz::expect_both_outcomes(
      fuzz::sweep(frame_corpus(), 1, kFrameMutants, decode_whole));
  fuzz::expect_both_outcomes(
      fuzz::sweep(frame_corpus(), 2, kFrameMutants, decode_prefix));
}

TEST(SnapshotFuzz, DuplicatedRecordsYieldOnlyWholeRecords) {
  // Copy one whole record of the journal back in, at a record boundary
  // (every copy still verifies) or at any byte.  The frame decoder refuses
  // every such document; the prefix decoder keeps whole records only.
  const std::string doc = frame_corpus().back();
  std::vector<std::size_t> bounds{0};
  for (const DecodedSnapshot& frame : decode_snapshot_prefix(doc).frames) {
    bounds.push_back(bounds.back() + reframe(frame).size());
  }
  Rng rng(derive_seed(0xF0221u, 3));
  fuzz::Tally prefix;
  for (int i = 0; i < kFrameMutants; ++i) {
    const std::size_t k = rng.uniform_index(bounds.size() - 1);
    const std::size_t at = rng.bernoulli(0.5)
                               ? bounds[rng.uniform_index(bounds.size())]
                               : rng.uniform_index(doc.size() + 1);
    std::string mutant = doc;
    mutant.insert(at, doc, bounds[k], bounds[k + 1] - bounds[k]);
    EXPECT_EQ(decode_whole(mutant), fuzz::Outcome::kRejected);
    ++(decode_prefix(mutant) == fuzz::Outcome::kRejected
           ? prefix.rejected
           : prefix.round_tripped);
  }
  fuzz::expect_both_outcomes(prefix);
}

TEST(CheckpointStoreNames, FileNamesSortBySequence) {
  EXPECT_EQ(CheckpointStore::file_name(3, 7),
            "shard-00003.seq-0000000007.ckpt");
  EXPECT_LT(CheckpointStore::file_name(0, 9),
            CheckpointStore::file_name(0, 10));
}

}  // namespace
}  // namespace ash::fleet
