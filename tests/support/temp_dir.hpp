// Per-test temporary directories.
//
// A test that writes files declares a TempDir and names its files with
// file(): every TempDir is a fresh mkdtemp() directory, removed with its
// contents when the TempDir goes out of scope. Parallel ctest runs and
// parameterized cases in one binary therefore never share a path.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace cla::test_support {

class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "cla_test_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp");
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

  /// The path of `name` inside this directory (the file is not created).
  std::string file(std::string_view name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace cla::test_support
