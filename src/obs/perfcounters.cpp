#include "obs/perfcounters.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#if defined(IDG_PERF_COUNTERS) && defined(__linux__)
#define IDG_PERF_COUNTERS_LIVE 1
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace idg::obs {

std::uint64_t scale_multiplexed(std::uint64_t raw, std::uint64_t enabled_ns,
                                std::uint64_t running_ns) {
  if (running_ns == 0) return 0;  // never scheduled: nothing was counted
  if (running_ns >= enabled_ns) return raw;  // ran the whole window
  const double scale = static_cast<double>(enabled_ns) /
                       static_cast<double>(running_ns);
  return static_cast<std::uint64_t>(static_cast<double>(raw) * scale + 0.5);
}

namespace {

/// IDG_PERF_DISABLE (any non-empty value) forces the stub path; tests and
/// the CI graceful-skip step pin the degraded behavior with it.
bool disabled_by_env() {
  const char* env = std::getenv("IDG_PERF_DISABLE");
  return env != nullptr && env[0] != '\0';
}

int read_paranoid_level() {
  std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
  int level = kPerfParanoidUnknown;
  if (in.good()) in >> level;
  if (!in.good() && !in.eof()) return kPerfParanoidUnknown;
  return level;
}

}  // namespace

HwCounters PerfCounterSession::delta(const RawSample& begin,
                                     const RawSample& end) {
  HwCounters out;
  if (!begin.valid || !end.valid) return out;
  const std::uint64_t enabled =
      end.time_enabled_ns - begin.time_enabled_ns;
  const std::uint64_t running =
      end.time_running_ns - begin.time_running_ns;
  const auto scaled = [&](HwCounterIndex i) -> std::uint64_t {
    if (!end.present[i]) return 0;
    return scale_multiplexed(end.value[i] - begin.value[i], enabled, running);
  };
  out.samples = 1;
  out.cycles = scaled(kHwCycles);
  out.instructions = scaled(kHwInstructions);
  out.llc_loads = scaled(kHwLlcLoads);
  out.llc_misses = scaled(kHwLlcMisses);
  out.stalled_cycles_backend = scaled(kHwStalledBackend);
  // The task clock is a software counter on its own fd: never multiplexed,
  // never scaled.
  if (end.task_clock_present) {
    out.task_clock_ns = end.task_clock_ns - begin.task_clock_ns;
  }
  out.time_enabled_ns = enabled;
  out.time_running_ns = running;
  return out;
}

#if defined(IDG_PERF_COUNTERS_LIVE)

namespace {

const char* const kCounterNames[kNrHwCounters] = {
    "cycles", "instructions", "llc-loads", "llc-misses",
    "stalled-cycles-backend",
};

long sys_perf_event_open(perf_event_attr* attr, pid_t pid, int cpu,
                         int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

perf_event_attr base_attr(std::uint32_t type, std::uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = 0;  // free-running; ScopedCounters works on deltas
  // User space only: measuring the kernel requires paranoid <= 1 and the
  // pipeline's work is user-space math anyway. Keeping this fixed means
  // the same measurement semantics at every paranoid level that lets us
  // open counters at all.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

perf_event_attr attr_for(HwCounterIndex index) {
  constexpr std::uint64_t kLlcRead =
      PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8);
  switch (index) {
    case kHwCycles:
      return base_attr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    case kHwInstructions:
      return base_attr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
    case kHwLlcLoads:
      return base_attr(PERF_TYPE_HW_CACHE,
                       kLlcRead | (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16));
    case kHwLlcMisses:
      return base_attr(PERF_TYPE_HW_CACHE,
                       kLlcRead | (PERF_COUNT_HW_CACHE_RESULT_MISS << 16));
    case kHwStalledBackend:
      return base_attr(PERF_TYPE_HARDWARE,
                       PERF_COUNT_HW_STALLED_CYCLES_BACKEND);
    default:
      return base_attr(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  }
}

}  // namespace

/// One thread's open counter fds. The cycles leader plus whichever group
/// members this PMU could host, and the software task clock on its own fd
/// (software events cannot lead a hardware group portably, and on its own
/// fd the clock is never multiplexed).
struct PerfCounterSession::ThreadCounters {
  int leader_fd = -1;
  int task_clock_fd = -1;
  /// present[i] <=> counter i opened; group read order is the order of
  /// group_index entries with present[i] true.
  std::array<bool, kNrHwCounters> present{};
  std::size_t nr_in_group = 0;

  ~ThreadCounters() { close_all(); }

  bool open_group() {
    for (std::size_t i = 0; i < kNrHwCounters; ++i) {
      perf_event_attr attr = attr_for(static_cast<HwCounterIndex>(i));
      const int fd = static_cast<int>(sys_perf_event_open(
          &attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/leader_fd, 0));
      if (fd < 0) {
        if (i == kHwCycles) return false;  // no leader, no session
        continue;  // member unsupported on this PMU: measure without it
      }
      if (i == kHwCycles) leader_fd = fd;
      member_fds.push_back(fd);
      present[i] = true;
      ++nr_in_group;
    }
    perf_event_attr clock =
        base_attr(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
    clock.read_format = 0;
    task_clock_fd = static_cast<int>(
        sys_perf_event_open(&clock, /*pid=*/0, /*cpu=*/-1, -1, 0));
    return true;
  }

  bool read_sample(RawSample& out) const {
    out = RawSample{};
    if (leader_fd < 0) return false;
    // Layout with PERF_FORMAT_GROUP|TOTAL_TIME_{ENABLED,RUNNING}:
    //   u64 nr; u64 time_enabled; u64 time_running; u64 values[nr];
    std::array<std::uint64_t, 3 + kNrHwCounters> buf{};
    const ssize_t want = static_cast<ssize_t>((3 + nr_in_group) *
                                              sizeof(std::uint64_t));
    if (::read(leader_fd, buf.data(), static_cast<std::size_t>(want)) != want)
      return false;
    if (buf[0] != nr_in_group) return false;
    out.time_enabled_ns = buf[1];
    out.time_running_ns = buf[2];
    std::size_t slot = 0;
    for (std::size_t i = 0; i < kNrHwCounters; ++i) {
      if (!present[i]) continue;
      out.present[i] = true;
      out.value[i] = buf[3 + slot++];
    }
    if (task_clock_fd >= 0) {
      std::uint64_t clock = 0;
      if (::read(task_clock_fd, &clock, sizeof clock) == sizeof clock) {
        out.task_clock_ns = clock;
        out.task_clock_present = true;
      }
    }
    out.valid = true;
    return true;
  }

  void close_all() {
    for (int fd : member_fds) ::close(fd);
    member_fds.clear();
    if (task_clock_fd >= 0) ::close(task_clock_fd);
    leader_fd = -1;
    task_clock_fd = -1;
  }

  std::vector<int> member_fds;  ///< leader first, then opened members
};

struct PerfCounterSession::Impl {
  std::mutex mutex;  ///< guards threads (each thread writes only its own)
  std::vector<std::unique_ptr<ThreadCounters>> threads;
  std::array<bool, kNrHwCounters> leader_present{};  ///< first thread's view
  bool leader_present_known = false;
};

namespace {
std::atomic<std::uint64_t> session_counter{1};
}

PerfCounterSession::PerfCounterSession()
    : id_(session_counter.fetch_add(1, std::memory_order_relaxed)),
      impl_(std::make_unique<Impl>()) {}

PerfCounterSession::~PerfCounterSession() = default;

std::unique_ptr<PerfCounterSession> PerfCounterSession::open(
    std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return nullptr;
  };
  if (disabled_by_env()) return fail("disabled by IDG_PERF_DISABLE");
  std::unique_ptr<PerfCounterSession> session(new PerfCounterSession());
  session->paranoid_level_ = read_paranoid_level();
  // Opening the calling thread's group is the real availability test: in
  // containers and CI the syscall is typically refused (EACCES/EPERM from
  // perf_event_paranoid, or ENOSYS when seccomp masks it entirely).
  if (session->thread_counters() == nullptr) {
    std::string reason = "perf_event_open refused (";
    reason += std::strerror(errno);
    if (session->paranoid_level_ != kPerfParanoidUnknown) {
      reason += "; perf_event_paranoid=" +
                std::to_string(session->paranoid_level_);
    }
    reason += ")";
    return fail(std::move(reason));
  }
  if (why != nullptr) *why = "ok";
  return session;
}

namespace {
/// Thread-local cache: which session's group this thread has open, and
/// the session-owned slot. Re-keyed when a new session is installed.
struct ThreadCacheEntry {
  std::uint64_t session_id = 0;
  void* counters = nullptr;  // ThreadCounters*, owned by the session
};
thread_local ThreadCacheEntry t_perf_cache;
}  // namespace

PerfCounterSession::ThreadCounters* PerfCounterSession::thread_counters() {
  if (t_perf_cache.session_id == id_) {
    return static_cast<ThreadCounters*>(t_perf_cache.counters);
  }
  auto counters = std::make_unique<ThreadCounters>();
  ThreadCounters* raw = nullptr;
  if (counters->open_group()) {
    raw = counters.get();
    std::lock_guard lock(impl_->mutex);
    if (!impl_->leader_present_known) {
      impl_->leader_present = counters->present;
      impl_->leader_present_known = true;
    }
    impl_->threads.push_back(std::move(counters));
  }
  // A failed open is cached too (counters = nullptr): a thread the kernel
  // refuses once is not retried on every span.
  t_perf_cache.session_id = id_;
  t_perf_cache.counters = raw;
  return raw;
}

bool PerfCounterSession::sample_now(RawSample& out) {
  ThreadCounters* counters = thread_counters();
  if (counters == nullptr) {
    out = RawSample{};
    return false;
  }
  return counters->read_sample(out);
}

void PerfCounterSession::prepare_thread() { (void)thread_counters(); }

std::string PerfCounterSession::counter_list() const {
  std::array<bool, kNrHwCounters> present{};
  {
    std::lock_guard lock(impl_->mutex);
    if (impl_->leader_present_known) present = impl_->leader_present;
  }
  std::string out;
  for (std::size_t i = 0; i < kNrHwCounters; ++i) {
    if (!present[i]) continue;
    if (!out.empty()) out += ",";
    out += kCounterNames[i];
  }
  if (!out.empty()) out += ",";
  out += "task-clock";
  return out;
}

PerfProbe probe_perf_counters() {
  PerfProbe probe;
  probe.paranoid_level = read_paranoid_level();
  std::string why;
  if (auto session = PerfCounterSession::open(&why)) {
    probe.available = true;
    probe.detail = "ok (" + session->counter_list() + ")";
  } else {
    probe.detail = why;
  }
  return probe;
}

#else  // stub build: IDG_PERF_COUNTERS=OFF or non-Linux

struct PerfCounterSession::ThreadCounters {};
struct PerfCounterSession::Impl {};

PerfCounterSession::PerfCounterSession() : id_(0) {}
PerfCounterSession::~PerfCounterSession() = default;

std::unique_ptr<PerfCounterSession> PerfCounterSession::open(
    std::string* why) {
  if (why != nullptr) {
    *why = disabled_by_env()
               ? "disabled by IDG_PERF_DISABLE"
               : "built without perf_event support (IDG_PERF_COUNTERS=OFF "
                 "or non-Linux)";
  }
  return nullptr;
}

PerfCounterSession::ThreadCounters* PerfCounterSession::thread_counters() {
  return nullptr;
}

bool PerfCounterSession::sample_now(RawSample& out) {
  out = RawSample{};
  return false;
}

void PerfCounterSession::prepare_thread() {}

std::string PerfCounterSession::counter_list() const { return ""; }

PerfProbe probe_perf_counters() {
  PerfProbe probe;
  probe.paranoid_level = read_paranoid_level();
  std::string why;
  PerfCounterSession::open(&why);
  probe.detail = why;
  return probe;
}

#endif  // IDG_PERF_COUNTERS_LIVE

namespace {
std::atomic<PerfCounterSession*> g_perf_session{nullptr};
}

PerfCounterSession* global_perf_session() {
  return g_perf_session.load(std::memory_order_relaxed);
}

void set_global_perf_session(PerfCounterSession* session) {
  g_perf_session.store(session, std::memory_order_release);
}

void warm_thread_counters() {
  if (PerfCounterSession* session = global_perf_session()) {
    session->prepare_thread();
  }
}

}  // namespace idg::obs
