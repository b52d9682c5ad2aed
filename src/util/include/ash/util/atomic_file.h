#pragma once

/// \file atomic_file.h
/// Crash-safe file persistence: write-to-temp, fsync, rename, fsync-dir
/// (and the same without the fsyncs, for kill-safe telemetry).
///
/// A checkpoint that a crash can tear in half is worse than no checkpoint —
/// it poisons the recovery path.  `atomic_write_file` guarantees that after
/// any crash the destination path holds either the complete previous
/// content or the complete new content, never a prefix:
///
///   1. the bytes are written to a unique sibling temp file
///      (`<name>.tmp.<pid>`) in the *same directory* (rename(2) is only
///      atomic within a filesystem);
///   2. the temp file is fsync'ed, so the data is on disk before it can
///      become reachable under the final name;
///   3. rename(2) installs it over the destination atomically;
///   4. the directory is fsync'ed, so the rename itself survives a crash.
///
/// `replace_file` is the same temp-file-and-rename without the two
/// fsyncs: a killed process still leaves the complete old or the complete
/// new content (the rename is atomic and the page cache outlives the
/// process), but a power cut may lose either.  It suits telemetry that
/// must explain a crash but need not survive the machine, written often
/// enough that two fsyncs per write would dominate its cost.
///
/// Failures are reported as `std::system_error` carrying errno and the
/// path; a failed write unlinks its temp file, so aborted attempts leave
/// no debris for directory scans to trip over.

#include <string>

namespace ash::util {

/// Atomically replace (or create) `path` with `bytes`.  Throws
/// std::system_error on any I/O failure; on failure `path` is untouched.
void atomic_write_file(const std::string& path, const std::string& bytes);

/// Replace (or create) `path` with `bytes` via a temp file and rename(2),
/// with no fsync: survives a kill of the writer, not a power cut.  Throws
/// std::system_error on any I/O failure; on failure `path` is untouched.
void replace_file(const std::string& path, const std::string& bytes);

/// fsync a directory so the names created or renamed in it survive a
/// crash (best-effort: an unopenable directory is ignored).
void sync_directory(const std::string& dir);

/// Read a whole file into a string.  Throws std::system_error when the
/// file cannot be opened or read.
std::string read_file(const std::string& path);

/// The directory component of `path` ("." when there is none).
std::string dirname_of(const std::string& path);

/// True when `path` names an existing, writable directory — the up-front
/// check tools run before a long campaign so a typo'd --out / --checkpoint
/// directory fails in milliseconds, not after hours of simulation.
bool writable_directory(const std::string& path);

}  // namespace ash::util
