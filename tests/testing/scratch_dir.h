// Hermetic per-test scratch directories. ctest runs every gtest case as its
// own process, many at once; a directory name must therefore be unique
// across concurrently running processes, not just within one. The name is
// built from the pid, the full "Suite.Test" name and a per-process counter,
// and creation retries with the next counter value if the name is taken
// (e.g. a directory left by a crashed process whose pid was recycled). Only
// the ScratchDir that created a directory removes it.
#ifndef MICROREC_TESTS_TESTING_SCRATCH_DIR_H_
#define MICROREC_TESTS_TESTING_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace microrec::testutil {

class ScratchDir {
 public:
  /// Creates `<temp>/<prefix>_<pid>_<Suite.Test>_<n>`.
  explicit ScratchDir(std::string_view prefix) {
    const std::filesystem::path base =
        std::filesystem::temp_directory_path();
    const std::string stem = std::string(prefix) + "_" +
                             std::to_string(::getpid()) + "_" + TestName() +
                             "_";
    for (;;) {
      std::filesystem::path candidate =
          base / (stem + std::to_string(NextCounter()));
      std::error_code ec;
      if (std::filesystem::create_directory(candidate, ec)) {
        path_ = candidate.string();
        return;
      }
      if (ec) {
        ADD_FAILURE() << "cannot create scratch directory " << candidate
                      << ": " << ec.message();
        path_ = candidate.string();
        return;
      }
    }
  }

  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

  /// `<dir>/<name>`.
  std::string File(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  static uint64_t NextCounter() {
    static std::atomic<uint64_t> counter{0};
    return counter.fetch_add(1);
  }

  // "Suite.Test" with '/' (parameterized names) mapped to '_'; "no_test"
  // outside a running test.
  static std::string TestName() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        info == nullptr
            ? std::string("no_test")
            : std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    return name;
  }

  std::string path_;
};

}  // namespace microrec::testutil

#endif  // MICROREC_TESTS_TESTING_SCRATCH_DIR_H_
