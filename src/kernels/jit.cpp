#include "kernels/jit.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/checkpoint.hpp"

extern char** environ;

namespace idg::kernels {

namespace {

/// The text of kernels/loops.hpp, embedded by the build.
constexpr char kLoopsSource[] =
#include "loops_source.inc"
    ;

constexpr const char* kCompileFlags[] = {
    "-O3",    "-march=native", "-fopenmp", "-ffp-contract=fast",
    "-funroll-loops", "-shared", "-fPIC", "-std=c++17"};

/// Runs `argv` (argv[0] looked up in PATH) without a shell, its stdout on
/// `stdout_fd` (or /dev/null when negative) and its stderr on /dev/null.
/// Returns the exit status, or -1 when it could not run or was killed.
int run(const std::vector<std::string>& argv, int stdout_fd = -1) {
  std::vector<char*> args;
  for (const std::string& arg : argv)
    args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  if (stdout_fd >= 0) {
    ::posix_spawn_file_actions_adddup2(&actions, stdout_fd, STDOUT_FILENO);
  } else {
    ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
  }
  ::posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// First line of `c++ --version`, or "unknown" when it does not run. Part
/// of the cache key: objects compiled by one toolchain must not be reused
/// after a compiler upgrade.
std::string compiler_version() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return "unknown";
  const int status = run({"c++", "--version"}, fds[1]);
  ::close(fds[1]);
  std::string out;
  char buf[256];
  ssize_t got = 0;
  while ((got = ::read(fds[0], buf, sizeof buf)) > 0)
    out.append(buf, static_cast<std::size_t>(got));
  ::close(fds[0]);
  if (status != 0 || out.empty()) return "unknown";
  return out.substr(0, out.find_first_of("\r\n"));
}

std::string hex(std::uint32_t value) {
  char text[16];
  std::snprintf(text, sizeof text, "%08x", value);
  return text;
}

/// The persistent cache directory, shared by every process on the host:
/// $TMPDIR/idg-jit-<crc32(compiler version | flags)>, or /tmp when it
/// cannot be created.
std::string cache_dir() {
  static const std::string key = [] {
    std::string k = compiler_version();
    for (const char* flag : kCompileFlags) k += std::string("|") + flag;
    return k;
  }();
  const char* tmp = std::getenv("TMPDIR");
  const std::string base = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  const std::string dir =
      base + "/idg-jit-" + hex(crc32(key.data(), key.size()));
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  return error ? std::string("/tmp") : dir;
}

/// Whether this library's own loops fuse multiply-adds; when they do not,
/// the compiled phases must not either (IDG_JIT_UNFUSED_PHASES in
/// kernels/loops.hpp).
#ifdef __FMA__
constexpr const char* kPhaseRounding = "";
#else
constexpr const char* kPhaseRounding = "#define IDG_JIT_UNFUSED_PHASES\n";
#endif

/// The translation unit of one shape: the shape constants, then the loops.
std::string generate_source(std::size_t subgrid_size,
                            std::size_t nr_channels) {
  return "#define IDG_JIT_N2 " + std::to_string(subgrid_size * subgrid_size) +
         "\n#define IDG_JIT_NC " + std::to_string(nr_channels) + "\n" +
         kPhaseRounding + kLoopsSource;
}

/// Removes the shape's objects compiled from other sources: the files in
/// `dir` named `<shape><8 hex digits>.so`, except `keep`. Another process's
/// in-flight `.<pid>` temporaries have longer names and stay. A process
/// that loses an object it was about to open runs the static loops, as on
/// any JIT failure. Errors are ignored; a stale object only costs disk.
void remove_stale_objects(const std::string& dir, const std::string& shape,
                          const std::string& keep) {
  std::error_code error;
  for (std::filesystem::directory_iterator it(dir, error), end;
       !error && it != end; it.increment(error)) {
    const std::string name = it->path().filename().string();
    const bool stale =
        name != keep && name.size() == keep.size() &&
        name.starts_with(shape) && name.ends_with(".so") &&
        name.find_first_not_of("0123456789abcdef", shape.size()) ==
            name.size() - 3;
    std::error_code ignored;
    if (stale) std::filesystem::remove(it->path(), ignored);
  }
}

/// Compiles one shape's shared object and resolves its entry points,
/// reusing an object already present in the persistent cache. Publishing
/// a new object removes the shape's stale ones. Returns null entry points
/// on any failure.
CompiledLoops compile_shape(std::size_t subgrid_size,
                            std::size_t nr_channels) {
  const std::string source = generate_source(subgrid_size, nr_channels);
  const std::string dir = cache_dir();
  const std::string shape = "kernel_" + std::to_string(subgrid_size) + "_" +
                            std::to_string(nr_channels) + "_";
  const std::string name = shape + hex(crc32(source.data(), source.size()));
  const std::string stem = dir + "/" + name;
  const std::string so_path = stem + ".so";

  // Cache hit: another run (or process) already compiled this object.
  if (::access(so_path.c_str(), R_OK) != 0) {
    // Write and compile under process-unique names, then rename:
    // concurrent processes racing on one shape each publish a complete
    // object.
    const std::string unique = stem + "." + std::to_string(::getpid());
    const std::string src_path = unique + ".cpp";
    const std::string tmp_so = unique + ".so";
    {
      std::ofstream out(src_path);
      out << source;
      if (!out.good()) return {};
    }
    std::vector<std::string> argv(std::begin(kCompileFlags),
                                  std::end(kCompileFlags));
    argv.insert(argv.begin(), "c++");
    argv.insert(argv.end(), {"-o", tmp_so, src_path});
    const bool built = run(argv) == 0 &&
                       std::rename(tmp_so.c_str(), so_path.c_str()) == 0;
    std::remove(src_path.c_str());
    if (!built) {
      std::remove(tmp_so.c_str());
      return {};
    }
    remove_stale_objects(dir, shape, name + ".so");
  }

  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return {};
  CompiledLoops loops;
  loops.grid = reinterpret_cast<decltype(loops.grid)>(
      ::dlsym(handle, "idg_jit_grid"));
  loops.degrid = reinterpret_cast<decltype(loops.degrid)>(
      ::dlsym(handle, "idg_jit_degrid"));
  if (loops.grid == nullptr || loops.degrid == nullptr) return {};
  // The handle is intentionally leaked: the code must stay mapped for the
  // process lifetime (kernel sets are process-wide singletons).
  return loops;
}

}  // namespace

const CompiledLoops& jit_loops(std::size_t subgrid_size,
                               std::size_t nr_channels) {
  // std::map keeps node addresses stable, so returned references survive
  // later insertions; entries are never erased.
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, std::size_t>, CompiledLoops> shapes;
  std::lock_guard lock(mutex);
  const auto key = std::make_pair(subgrid_size, nr_channels);
  auto it = shapes.find(key);
  if (it == shapes.end())
    it = shapes.emplace(key, compile_shape(subgrid_size, nr_channels)).first;
  return it->second;
}

bool jit_available() {
  static const bool available = jit_loops(8, 4).grid != nullptr;
  return available;
}

std::string jit_cache_directory() { return cache_dir(); }

}  // namespace idg::kernels
