// A scratch directory whose name is a shell command injection, for the
// tests of code that creates directories or runs programs under paths taken
// from the environment. Such code must pass the path on verbatim: were it
// ever spliced into a shell command line, the `touch` would create the
// `pwned` file.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

namespace idg::test {

/// Sets (or, with nullopt, unsets) one environment variable for a scope.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const std::optional<std::string>& value)
      : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    set(value);
  }
  ~ScopedEnv() { set(old_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const std::optional<std::string>& value) {
    if (value) {
      ::setenv(name_.c_str(), value->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

  std::string name_;
  std::optional<std::string> old_;
};

/// `<tmp>/<stem>/x'; touch <tmp>/<stem>/PWNED; echo '` and its marker file;
/// removed with everything under <tmp>/<stem> when the scope ends.
struct HostilePath {
  std::filesystem::path root;
  std::filesystem::path pwned;
  std::string dir;

  explicit HostilePath(const std::string& stem) {
    const char* tmp = std::getenv("TMPDIR");
    root = std::filesystem::path(tmp != nullptr ? tmp : "/tmp") / stem;
    std::filesystem::remove_all(root);
    std::filesystem::create_directories(root);
    pwned = root / "PWNED";
    dir = root.string() + "/x'; touch " + pwned.string() + "; echo '";
  }
  ~HostilePath() {
    std::error_code ignored;
    std::filesystem::remove_all(root, ignored);
  }
  HostilePath(const HostilePath&) = delete;
  HostilePath& operator=(const HostilePath&) = delete;
};

}  // namespace idg::test
