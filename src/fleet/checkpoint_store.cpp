#include "ash/fleet/checkpoint_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <system_error>

#include "ash/util/atomic_file.h"
#include "ash/util/crc32.h"
#include "ash/util/syscall.h"
#include "ash/util/text_reader.h"

namespace ash::fleet {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'H', 'F', 'L', 'T', '1', '\n'};
constexpr std::size_t kHeaderSize = kSnapshotHeaderSize;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t get_u32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

}  // namespace

std::string frame_snapshot(int shard_id, std::uint64_t sequence,
                           std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kSnapshotVersion);
  put_u32(out, static_cast<std::uint32_t>(shard_id));
  put_u64(out, sequence);
  put_u64(out, payload.size());
  put_u32(out, util::crc32(payload));
  put_u32(out, util::crc32(out));  // header self-check over bytes 0..35
  out.append(payload);
  return out;
}

namespace {

/// Verify the frame at the front of `bytes`.  `whole` demands that it end
/// exactly where `bytes` ends (a snapshot file); otherwise later bytes are
/// left for the next frame (a journal).  Returns the frame's size.
std::size_t decode_frame(std::string_view bytes, bool whole,
                         DecodedSnapshot& out) {
  if (bytes.size() < kHeaderSize) {
    throw CorruptSnapshot("snapshot truncated: " +
                          std::to_string(bytes.size()) +
                          " bytes, header needs " +
                          std::to_string(kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw CorruptSnapshot("bad magic: not an ash-fleet snapshot");
  }
  const std::uint32_t version = get_u32(bytes, 8);
  if (version != kSnapshotVersion) {
    throw CorruptSnapshot("unsupported snapshot version " +
                          std::to_string(version));
  }
  const std::uint32_t header_crc = get_u32(bytes, 36);
  if (util::crc32(bytes.substr(0, 36)) != header_crc) {
    throw CorruptSnapshot("header CRC mismatch (header tampered or torn)");
  }
  const std::uint64_t payload_size = get_u64(bytes, 24);
  const std::uint64_t carried = bytes.size() - kHeaderSize;
  if (whole ? carried != payload_size : carried < payload_size) {
    throw CorruptSnapshot(
        "payload length mismatch: header says " +
        std::to_string(payload_size) + " bytes, file carries " +
        std::to_string(carried) +
        (carried < payload_size ? " (torn write)" : " (trailing garbage)"));
  }
  const std::string_view payload =
      bytes.substr(kHeaderSize, static_cast<std::size_t>(payload_size));
  const std::uint32_t payload_crc = get_u32(bytes, 32);
  if (util::crc32(payload) != payload_crc) {
    throw CorruptSnapshot("payload CRC mismatch (bit rot or tampering)");
  }
  out.shard_id = static_cast<int>(get_u32(bytes, 12));
  out.sequence = get_u64(bytes, 16);
  out.payload = std::string(payload);
  return kHeaderSize + payload.size();
}

[[noreturn]] void io_error(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(), what + " " + path);
}

}  // namespace

DecodedSnapshot decode_snapshot(std::string_view bytes) {
  DecodedSnapshot out;
  (void)decode_frame(bytes, true, out);
  return out;
}

SnapshotPrefix decode_snapshot_prefix(std::string_view bytes) {
  SnapshotPrefix out;
  while (out.valid_bytes < bytes.size()) {
    DecodedSnapshot frame;
    try {
      out.valid_bytes +=
          decode_frame(bytes.substr(out.valid_bytes), false, frame);
    } catch (const CorruptSnapshot&) {
      break;  // the damage and everything after it is not a record
    }
    out.frames.push_back(std::move(frame));
  }
  return out;
}

CheckpointStore::CheckpointStore(std::string directory)
    : directory_(std::move(directory)) {
  if (!util::writable_directory(directory_)) {
    throw std::runtime_error("checkpoint store: '" + directory_ +
                             "' is not a writable directory");
  }
}

std::string CheckpointStore::file_name(int shard_id, std::uint64_t sequence) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "shard-%05d.seq-%010" PRIu64 ".ckpt",
                shard_id, sequence);
  return buf;
}

std::string CheckpointStore::save(int shard_id, std::uint64_t sequence,
                                  std::string_view payload) const {
  const std::string path = directory_ + "/" + file_name(shard_id, sequence);
  util::atomic_write_file(path, frame_snapshot(shard_id, sequence, payload));
  return path;
}

std::string CheckpointStore::journal_path(int shard_id,
                                          std::uint64_t base) const {
  std::string name = file_name(shard_id, base);
  name.replace(name.size() - 5, 5, ".wal");
  return directory_ + "/" + name;
}

std::map<std::uint64_t, std::string> CheckpointStore::journal_files(
    int shard_id) const {
  return files_by_sequence(shard_id, ".wal");
}

std::vector<std::string> CheckpointStore::shard_files(int shard_id) const {
  std::vector<std::string> out;
  for (auto& [seq, path] : files_by_sequence(shard_id, ".ckpt")) {
    out.push_back(std::move(path));
  }
  return out;
}

std::map<std::uint64_t, std::string> CheckpointStore::files_by_sequence(
    int shard_id, std::string_view suffix) const {
  // Collect by *parsed* sequence so ordering never depends on readdir
  // order; the zero-padded names sort the same way, but parsing is the
  // contract.
  std::map<std::uint64_t, std::string> by_seq;
  DIR* d = ::opendir(directory_.c_str());
  if (d == nullptr) {
    throw std::runtime_error("checkpoint store: cannot list '" + directory_ +
                             "'");
  }
  char want_prefix[32];
  std::snprintf(want_prefix, sizeof want_prefix, "shard-%05d.seq-", shard_id);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind(want_prefix, 0) != 0) continue;
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    // A name whose sequence is not a u64 (junk, or digits past 2^64) is
    // skipped, never saturated into the newest snapshot.
    const std::optional<std::uint64_t> seq = util::parse_u64(
        std::string_view(name).substr(
            std::strlen(want_prefix),
            name.size() - std::strlen(want_prefix) - suffix.size()));
    if (!seq) continue;
    by_seq[*seq] = directory_ + "/" + name;
  }
  ::closedir(d);
  return by_seq;
}

std::optional<LoadedSnapshot> CheckpointStore::load_newest_valid(
    int shard_id) const {
  const std::vector<std::string> files = shard_files(shard_id);
  LoadedSnapshot out;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::string bytes;
    try {
      bytes = util::read_file(*it);
    } catch (const std::system_error&) {
      out.corrupt_skipped++;  // unreadable counts as invalid
      continue;
    }
    try {
      DecodedSnapshot snap = decode_snapshot(bytes);
      if (snap.shard_id != shard_id) {
        out.corrupt_skipped++;  // frame verifies but names another shard
        continue;
      }
      out.sequence = snap.sequence;
      out.payload = std::move(snap.payload);
      return out;
    } catch (const CorruptSnapshot&) {
      out.corrupt_skipped++;
    }
  }
  return std::nullopt;
}

void CheckpointStore::prune(int shard_id, std::size_t keep) const {
  const std::vector<std::string> files = shard_files(shard_id);
  if (files.size() <= keep) return;
  for (std::size_t i = 0; i + keep < files.size(); ++i) {
    ::unlink(files[i].c_str());
  }
}

Journal::Journal(std::string path, std::uint64_t keep_bytes)
    : path_(std::move(path)) {
  const bool created = ::access(path_.c_str(), F_OK) != 0;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) io_error("cannot open journal", path_);
  const auto fail = [&](const char* what) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    io_error(what, path_);
  };
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("cannot stat journal");
  bytes_ = std::min<std::uint64_t>(keep_bytes,
                                   static_cast<std::uint64_t>(st.st_size));
  if (static_cast<std::uint64_t>(st.st_size) > bytes_ &&
      (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0 ||
       util::retry_eintr([&] { return ::fdatasync(fd_); }) != 0)) {
    fail("cannot truncate journal");
  }
  if (created) util::sync_directory(util::dirname_of(path_));
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::append(int shard_id, std::uint64_t sequence,
                     std::string_view payload) {
  const std::string frame = frame_snapshot(shard_id, sequence, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = util::retry_eintr([&] {
      return ::write(fd_, frame.data() + off, frame.size() - off);
    });
    if (n < 0) {
      const int saved = errno;
      // Never leave a torn record for the next append to land behind.
      (void)::ftruncate(fd_, static_cast<off_t>(bytes_));
      errno = saved;
      io_error("cannot append to journal", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  if (util::retry_eintr([&] { return ::fdatasync(fd_); }) != 0) {
    io_error("cannot fdatasync journal", path_);
  }
  bytes_ += frame.size();
}

SnapshotPrefix Journal::records(const std::string& path) {
  try {
    return decode_snapshot_prefix(util::read_file(path));
  } catch (const std::system_error&) {
    return SnapshotPrefix{};  // unreadable: no record verifies
  }
}

}  // namespace ash::fleet
