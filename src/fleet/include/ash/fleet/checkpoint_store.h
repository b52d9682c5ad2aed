#pragma once

/// \file checkpoint_store.h
/// Durable, corruption-detecting persistence for campaign checkpoints.
///
/// `tb::CampaignCheckpoint` serializes as a line-oriented text document —
/// perfect for diffing, useless for crash safety: a torn write leaves a
/// prefix that still *looks* like a checkpoint up to the tear.  The fleet
/// store wraps that text payload in a versioned binary frame,
///
///   offset  size  field
///        0     8  magic "ASHFLT1\n"
///        8     4  format version (1, little-endian u32)
///       12     4  shard id (u32)
///       16     8  sequence number (u64; the campaign's next_phase)
///       24     8  payload size in bytes (u64)
///       32     4  CRC-32 of the payload
///       36     4  CRC-32 of bytes 0..35 (header self-check)
///       40     …  payload (the CampaignCheckpoint text document)
///
/// and persists it with `util::atomic_write_file` (write temp → fsync →
/// rename → fsync dir), so a snapshot file is either entirely present or
/// entirely absent.  Defense in depth: even if the filesystem breaks that
/// promise (or an adversary edits the file), `decode_snapshot` detects
/// truncation, trailing garbage, header tampering and payload bit-flips,
/// and `load_newest_valid` falls back to the newest snapshot that still
/// verifies — recovery never trusts unverified bytes.
///
/// One directory holds many shards' snapshots; files are named
/// `shard-<id>.seq-<sequence>.ckpt` so a directory listing is also a
/// recovery map.  Sequence numbers are monotone per shard (the campaign
/// phase index), which makes "newest" well-defined without trusting
/// mtimes.
///
/// The same frame, laid end to end, is a write-ahead journal: `Journal`
/// appends one frame per record and fdatasyncs it, and
/// `decode_snapshot_prefix` recovers the records wholly before the first
/// byte that fails verification — a torn tail record is dropped under the
/// same contract that drops a torn snapshot.  Journals live beside the
/// snapshots as `shard-<id>.seq-<base>.wal`, named by the sequence of the
/// snapshot they follow.

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ash::fleet {

/// Frame format version written by this build.
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Bytes of frame header before the payload.
inline constexpr std::size_t kSnapshotHeaderSize = 40;

/// Thrown by decode_snapshot when a frame fails verification; the message
/// names the failing check (magic, version, truncation, CRC, ...).
class CorruptSnapshot : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Encode one snapshot frame (header + CRCs + payload).
std::string frame_snapshot(int shard_id, std::uint64_t sequence,
                           std::string_view payload);

/// A verified frame.
struct DecodedSnapshot {
  int shard_id = 0;
  std::uint64_t sequence = 0;
  std::string payload;
};

/// Verify and unwrap a frame.  Throws CorruptSnapshot on any violation:
/// short header, bad magic/version, header CRC mismatch, payload length
/// mismatch (truncation or trailing garbage) or payload CRC mismatch.
DecodedSnapshot decode_snapshot(std::string_view bytes);

/// The verified frames at the front of a journal.
struct SnapshotPrefix {
  std::vector<DecodedSnapshot> frames;
  std::uint64_t valid_bytes = 0;  ///< bytes the frames cover
};

/// Decode frames laid end to end, stopping at the first one that fails
/// any decode_snapshot check (torn, bit-flipped or garbage): never throws,
/// never yields a partial frame.
SnapshotPrefix decode_snapshot_prefix(std::string_view bytes);

/// A snapshot recovered from disk, plus how many invalid files were
/// skipped to reach it (surfaced into the supervision stats).
struct LoadedSnapshot {
  std::uint64_t sequence = 0;
  std::string payload;
  int corrupt_skipped = 0;
};

/// Directory of framed snapshots, many shards per directory.
class CheckpointStore {
 public:
  /// The directory must exist and be writable; throws std::runtime_error
  /// otherwise (checked up front so a typo'd path fails in milliseconds,
  /// not after hours of campaign).
  explicit CheckpointStore(std::string directory);

  const std::string& directory() const { return directory_; }

  /// Durably persist one snapshot; returns the file path written.
  std::string save(int shard_id, std::uint64_t sequence,
                   std::string_view payload) const;

  /// Newest snapshot of the shard that passes verification, scanning
  /// sequence numbers downward and skipping corrupt/truncated files.
  /// nullopt when no file verifies.
  std::optional<LoadedSnapshot> load_newest_valid(int shard_id) const;

  /// Snapshot file paths of one shard, ascending by sequence (whether or
  /// not they verify).
  std::vector<std::string> shard_files(int shard_id) const;

  /// Delete all but the newest `keep` snapshot files of the shard
  /// (retention for long missions; validity is not consulted).
  void prune(int shard_id, std::size_t keep) const;

  /// Canonical file name for (shard, sequence).
  static std::string file_name(int shard_id, std::uint64_t sequence);

  /// Path of the shard's journal that follows the snapshot at `base`.
  std::string journal_path(int shard_id, std::uint64_t base) const;

  /// Journal paths of one shard keyed by base sequence (ascending).
  std::map<std::uint64_t, std::string> journal_files(int shard_id) const;

 private:
  std::map<std::uint64_t, std::string> files_by_sequence(
      int shard_id, std::string_view suffix) const;

  std::string directory_;
};

/// An open write-ahead journal file (single writer).
class Journal {
 public:
  /// Open `path` for appending, creating it when absent (then the
  /// directory is fsync'd, so the new name survives a crash).  Bytes past
  /// the first `keep_bytes` — a torn or corrupt tail — are truncated away
  /// before anything is appended.  Throws std::system_error.
  Journal(std::string path, std::uint64_t keep_bytes);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one frame and fdatasync it: when this returns, the record is
  /// durable.  On a failed write the file is cut back to its last whole
  /// record and std::system_error is thrown.
  void append(int shard_id, std::uint64_t sequence, std::string_view payload);

  const std::string& path() const { return path_; }
  /// File size: the valid prefix kept at open plus every append.
  std::uint64_t bytes() const { return bytes_; }

  /// The verified record prefix of the journal at `path` (empty when the
  /// file is missing or unreadable).
  static SnapshotPrefix records(const std::string& path);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
};

}  // namespace ash::fleet
