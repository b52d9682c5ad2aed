#include "ash/util/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <system_error>

#include "ash/util/syscall.h"

namespace ash::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::system_error(errno, std::generic_category(), what + " " + path);
}

/// RAII fd that closes on scope exit.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }
  /// Close now, reporting the result (close can surface deferred errors).
  int close_now() {
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc;
  }

 private:
  int fd_;
};

void write_all(int fd, const std::string& bytes, const std::string& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = retry_eintr([&] {
      return ::write(fd, bytes.data() + off, bytes.size() - off);
    });
    if (n < 0) fail("cannot write", path);
    off += static_cast<std::size_t>(n);
  }
}

/// Write `bytes` to a sibling temp file (fsync'ed when `durable`) and
/// rename it over `path`.  On failure the temp file is unlinked and `path`
/// is untouched.
void install_file(const std::string& path, const std::string& bytes,
                  bool durable) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));

  Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (fd.get() < 0) fail("cannot create", tmp);
  try {
    write_all(fd.get(), bytes, tmp);
    if (durable && ::fsync(fd.get()) != 0) fail("cannot fsync", tmp);
    if (fd.close_now() != 0) fail("cannot close", tmp);
    if (::rename(tmp.c_str(), path.c_str()) != 0) fail("cannot rename", path);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
}

}  // namespace

std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool writable_directory(const std::string& path) {
  return ::access(path.c_str(), W_OK | X_OK) == 0;
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  install_file(path, bytes, /*durable=*/true);
  // Persist the rename itself: without the directory fsync a crash can
  // forget that the new name exists even though its data blocks are safe.
  sync_directory(dirname_of(path));
}

void replace_file(const std::string& path, const std::string& bytes) {
  install_file(path, bytes, /*durable=*/false);
}

void sync_directory(const std::string& dir) {
  Fd dfd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dfd.get() >= 0) (void)::fsync(dfd.get());
}

std::string read_file(const std::string& path) {
  Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) fail("cannot open", path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd.get(), buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot read", path);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace ash::util
