#include "ash/util/atomic_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <system_error>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

namespace ash::util {
namespace {

/// Fresh scratch directory per test, removed on teardown.
class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ash_atomic_file_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") {
          ::unlink((dir_ + "/" + name).c_str());
        }
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

  std::string dir_;
};

TEST_F(AtomicFileTest, RoundTrip) {
  const std::string path = dir_ + "/data.bin";
  const std::string payload = std::string("binary\0payload\n", 15);
  atomic_write_file(path, payload);
  EXPECT_EQ(read_file(path), payload);
}

TEST_F(AtomicFileTest, ReplacesExistingContentWhole) {
  const std::string path = dir_ + "/data.bin";
  atomic_write_file(path, "first version, longer than the second");
  atomic_write_file(path, "v2");
  EXPECT_EQ(read_file(path), "v2");
}

TEST_F(AtomicFileTest, LeavesNoTempFileBehind) {
  atomic_write_file(dir_ + "/data.bin", "payload");
  int entries = 0;
  DIR* d = ::opendir(dir_.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    EXPECT_EQ(name, "data.bin");
    ++entries;
  }
  ::closedir(d);
  EXPECT_EQ(entries, 1);
}

TEST_F(AtomicFileTest, FailureLeavesDestinationUntouched) {
  const std::string path = dir_ + "/keep.bin";
  atomic_write_file(path, "survivor");
  // Make the directory unwritable: the temp-file create must fail and the
  // original content must survive.
  ASSERT_EQ(::chmod(dir_.c_str(), 0555), 0);
  if (::access((dir_ + "/probe").c_str(), W_OK) != 0 && ::geteuid() != 0) {
    EXPECT_THROW(atomic_write_file(path, "usurper"), std::system_error);
    ASSERT_EQ(::chmod(dir_.c_str(), 0755), 0);
    EXPECT_EQ(read_file(path), "survivor");
  } else {
    // Running as root: chmod does not revoke access; skip the probe.
    ASSERT_EQ(::chmod(dir_.c_str(), 0755), 0);
  }
}

TEST_F(AtomicFileTest, MissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file(dir_ + "/no/such/dir/f", "x"),
               std::system_error);
}

TEST_F(AtomicFileTest, ReplaceFileInstallsWholeContentWithoutDebris) {
  // The fsync-free sibling shares the temp-file-and-rename path: whole
  // content replaced, no temp file left, a bad directory reported.
  const std::string path = dir_ + "/ring.txt";
  replace_file(path, "first version, longer than the second");
  replace_file(path, "v2");
  EXPECT_EQ(read_file(path), "v2");
  int entries = 0;
  DIR* d = ::opendir(dir_.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    EXPECT_EQ(name, "ring.txt");
    ++entries;
  }
  ::closedir(d);
  EXPECT_EQ(entries, 1);
  EXPECT_THROW(replace_file(dir_ + "/no/such/dir/f", "x"), std::system_error);
}

TEST_F(AtomicFileTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_file(dir_ + "/absent"), std::system_error);
}

TEST(DirnameOfTest, Components) {
  EXPECT_EQ(dirname_of("a/b/c.txt"), "a/b");
  EXPECT_EQ(dirname_of("/c.txt"), "/");
  EXPECT_EQ(dirname_of("c.txt"), ".");
}

TEST_F(AtomicFileTest, WritableDirectoryProbe) {
  EXPECT_TRUE(writable_directory(dir_));
  EXPECT_FALSE(writable_directory(dir_ + "/absent"));
  EXPECT_FALSE(writable_directory(dir_ + "/file-not-dir"));
}

}  // namespace
}  // namespace ash::util
