#include "shard/coordinator.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "idg/accounting.hpp"
#include "idg/processor.hpp"
#include "idg/scrub.hpp"
#include "kernels/optimized.hpp"
#include "shard/planner.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"

namespace idg::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// SIGTERM drain plumbing. The handler performs only async-signal-safe work:
// a sig_atomic flag store plus request_cancel() on the drain token (an
// atomic store). reset_drain() swaps in a fresh token (cancellation is
// latched) and never frees the old one — a handler may still hold the
// pointer. Retired tokens stay reachable from a process-lifetime list, and
// test-driven resets are bounded.

volatile std::sig_atomic_t g_drain = 0;

std::atomic<CancelToken*>& drain_slot() {
  static std::atomic<CancelToken*> slot{new CancelToken};
  return slot;
}

void handle_sigterm(int) { request_drain(); }

// ---------------------------------------------------------------------------
// Worker process bookkeeping.

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;
  std::uint64_t context = 0;  ///< generation of the context it holds, 0: none
  std::uint64_t call = 0;     ///< id of the call whose frame it holds, 0: none
  std::int64_t shard = -1;    ///< in-flight shard id, -1 = idle
  Clock::time_point last_heard;

  bool live() const { return fd >= 0; }
};

/// Reaps `pid` without blocking: true once it is gone (reaped now, or no
/// longer our child).
bool try_reap(pid_t pid) {
  int status = 0;
  pid_t r = 0;
  while ((r = ::waitpid(pid, &status, WNOHANG)) < 0 && errno == EINTR) {
  }
  return r != 0;
}

void kill_and_reap(WorkerProc& w) {
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  w.context = 0;
  w.call = 0;
  w.shard = -1;
}

/// The environment a worker starts with: the coordinator's, plus
/// OMP_WAIT_POLICY=passive unless the caller chose a policy. A pool worker
/// idles between calls, and libgomp's default lets its threads spin after
/// their last parallel region, on cores the coordinator needs.
std::vector<std::string> worker_environment() {
  std::vector<std::string> env;
  bool has_policy = false;
  for (char** var = environ; *var != nullptr; ++var) {
    env.emplace_back(*var);
    has_policy = has_policy || env.back().starts_with("OMP_WAIT_POLICY=");
  }
  if (!has_policy) env.emplace_back("OMP_WAIT_POLICY=passive");
  return env;
}

WorkerProc spawn_worker(const ShardConfig& config) {
  int sv[2];
  IDG_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            "socketpair failed: " << std::strerror(errno));
  // A 262 KB subgrid result must not wait for a busy coordinator to drain
  // the default 208 KB send buffer. The kernel caps the size at
  // net.core.wmem_max; only speed depends on it.
  const int sndbuf = 1 << 20;
  for (const int fd : sv) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  // Everything exec needs is built before fork: the child may only make
  // async-signal-safe calls (the parent may hold arbitrary locks — OpenMP,
  // malloc — at fork time).
  std::string path =
      config.worker_path.empty() ? "/proc/self/exe" : config.worker_path;
  std::string flag = kWorkerFlag;
  char* argv[] = {path.data(), flag.data(), nullptr};
  std::vector<std::string> env = worker_environment();
  std::vector<char*> envp;
  for (std::string& var : env) envp.push_back(var.data());
  envp.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    IDG_CHECK(false, "fork failed: " << std::strerror(errno));
  }
  if (pid == 0) {
    ::dup2(sv[1], 0);
    ::dup2(sv[1], 1);
    ::close(sv[0]);
    if (sv[1] > 1) ::close(sv[1]);
    // Die with the coordinator: a SIGKILLed coordinator must not leave
    // orphan workers behind. Re-check the parent to close the race where
    // it died before the prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(125);
    ::execve(path.c_str(), argv, envp.data());
    ::_exit(127);  // exec failed; surfaces as an immediate EOF upstairs
  }
  ::close(sv[1]);
  if (config.heartbeat_ms > 0) {
    // Receive timeout guards a worker stalling mid-frame; send timeout
    // guards a wedged worker that stopped draining its channel while the
    // coordinator ships it a large frame.
    timeval tv;
    tv.tv_sec = config.heartbeat_ms / 1000;
    tv.tv_usec = static_cast<long>(config.heartbeat_ms % 1000) * 1000;
    ::setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  WorkerProc w;
  w.pid = pid;
  w.fd = sv[0];
  w.last_heard = Clock::now();
  return w;
}

/// Runs every fork of one pool on a thread that lives as long as the pool:
/// PR_SET_PDEATHSIG fires when the thread that forked a child exits, not
/// when its process does (prctl(2)), so forking on a caller's thread would
/// kill the pool when that thread ends.
class SpawnThread {
 public:
  SpawnThread() : thread_([this] { serve(); }) {}
  ~SpawnThread() {
    {
      const std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  SpawnThread(const SpawnThread&) = delete;
  SpawnThread& operator=(const SpawnThread&) = delete;

  /// spawn_worker(config) on the thread; rethrows its error.
  WorkerProc spawn(const ShardConfig& config) {
    std::packaged_task<WorkerProc()> task(
        [&config] { return spawn_worker(config); });
    std::future<WorkerProc> result = task.get_future();
    {
      const std::lock_guard lock(mutex_);
      task_ = &task;
    }
    wake_.notify_all();
    return result.get();
  }

 private:
  void serve() {
    std::unique_lock lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || task_ != nullptr; });
      if (task_ == nullptr) return;  // stop_
      std::packaged_task<WorkerProc()>* task = std::exchange(task_, nullptr);
      lock.unlock();
      (*task)();
      lock.lock();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::packaged_task<WorkerProc()>* task_ = nullptr;  ///< guarded by mutex_
  bool stop_ = false;                                  ///< guarded by mutex_
  std::thread thread_;  ///< last: it starts on the members above
};

/// How long the destructor lets closed workers exit before SIGKILL.
constexpr auto kShutdownGrace = std::chrono::milliseconds(500);

}  // namespace

/// The worker processes of one backend, and the context they are sent. A
/// slot keeps its index for the pool's life; a dead worker is replaced in
/// its slot.
class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    // Closing its channel is a worker's shutdown: an idle worker reads EOF
    // at a frame boundary and exits 0.
    for (WorkerProc& w : workers) {
      if (w.fd >= 0) ::close(w.fd);
      w.fd = -1;
    }
    // A wedged worker must not outlive the backend, nor hold up its
    // destructor: a bounded wait, then SIGKILL.
    const auto deadline = Clock::now() + kShutdownGrace;
    for (WorkerProc& w : workers) {
      while (w.pid > 0 && Clock::now() < deadline) {
        if (try_reap(w.pid)) {
          w.pid = -1;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      kill_and_reap(w);
    }
  }

  WorkerProc spawn(const ShardConfig& config) {
    return spawner_.spawn(config);
  }

  /// The cleanup path of a call that ends by exception.
  void kill_all() {
    for (WorkerProc& w : workers) kill_and_reap(w);
    workers.clear();
  }

  std::vector<WorkerProc> workers;
  SealedFrame context;            ///< the coordinator's copy of the context
  std::uint64_t context_gen = 0;  ///< bumped whenever the context changes
  std::uint64_t calls = 0;        ///< id of the latest call

 private:
  SpawnThread spawner_;
};

namespace {

// ---------------------------------------------------------------------------
// The coordinator event loop, shared by grid and degrid.

struct ShardState {
  ShardRange range;
  std::uint32_t failures = 0;
};

class Run {
 public:
  /// `store` receives each group's first-delivered non-skip result;
  /// `progress` runs after every change to the done set (deliveries,
  /// quarantines, and once at startup) — the gridding merge cursor lives
  /// in it.
  using StoreFn = std::function<void(std::size_t, GroupResultMsg&&)>;
  using ProgressFn = std::function<void(const std::vector<std::uint8_t>&)>;

  Run(const ShardConfig& config, WorkerPool& pool, const Plan& plan,
      const RunControl& ctl, SealedFrame call, StoreFn store,
      ProgressFn progress)
      : config_(config),
        pool_(pool),
        plan_(plan),
        ctl_(ctl),
        call_(std::move(call)),
        store_(std::move(store)),
        progress_(std::move(progress)) {}

  ShardRunReport report;  ///< what this call did
  CallReadyMsg ready;
  bool have_ready = false;
  std::uint64_t retried_groups = 0;

  /// Runs the call. On any exception the pool is killed (the next call
  /// respawns it), so no worker carries a broken call's state.
  void execute() {
    try {
      run();
    } catch (...) {
      pool_.kill_all();
      throw;
    }
  }

 private:
  void run() {
    const std::size_t nr_groups = plan_.nr_work_groups();
    done_.assign(nr_groups, 0);
    remaining_ = 0;
    for (std::size_t g = 0; g < nr_groups; ++g) {
      if (ctl_.group_skipped(g)) {
        done_[g] = 1;
      } else {
        ++remaining_;
      }
    }
    progress_(done_);
    if (remaining_ == 0) return;
    check_aborts();

    const std::size_t nr_shards =
        config_.nr_shards > 0 ? config_.nr_shards : 2 * config_.nr_workers;
    for (const ShardRange& range : plan_shards(plan_, nr_shards)) {
      queue_.push_back(shards_.size());
      shards_.push_back(ShardState{range});
    }
    fill_pool(
        std::max<std::size_t>(1, std::min(config_.nr_workers, shards_.size())));

    // Until every group is in, then until every worker is idle: a worker
    // still re-running delivered groups must not carry its frames into the
    // next call.
    while (remaining_ > 0 || busy()) {
      check_aborts();
      dispatch();
      poll_once();
      check_heartbeats();
    }
  }

  void check_aborts() {
    if (drain_requested()) {
      throw CancelledError(
          "SIGTERM drain: aborting the sharded call (a checkpointing "
          "caller resumes from its last completed cycle)");
    }
    ctl_.check_cancel("shard.coordinator");
  }

  /// Fills the pool's first `wanted` slots: an empty slot gets a new
  /// worker, a dead one a replacement.
  void fill_pool(std::size_t wanted) {
    std::vector<WorkerProc>& workers = pool_.workers;
    for (std::size_t i = 0; i < wanted; ++i) {
      if (i == workers.size()) {
        ++report.counters.workers_spawned;
        workers.push_back(pool_.spawn(config_));
      } else if (!workers[i].live()) {
        respawn(workers[i], "a pool worker died between calls");
      }
    }
  }

  /// Interruptible backoff sleep before a respawn: 1 ms slices, bailing
  /// out as soon as a drain or cancellation is requested (check_aborts()
  /// in the event loop then surfaces the CancelledError).
  void backoff_sleep(std::uint32_t delay_ms) {
    for (std::uint32_t slept = 0; slept < delay_ms; ++slept) {
      if (drain_requested()) return;
      if (ctl_.cancel != nullptr && ctl_.cancel->cancelled()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Replaces the dead worker in slot `w`.
  void respawn(WorkerProc& w, const std::string& why) {
    IDG_CHECK(respawns_ < config_.max_respawns,
              "shard worker respawn limit ("
                  << config_.max_respawns
                  << ") exceeded; last failure: " << why);
    ++respawns_;
    ++report.counters.workers_respawned;
    backoff_sleep(respawn_backoff_ms(respawns_,
                                     config_.respawn_backoff_base_ms,
                                     config_.respawn_backoff_cap_ms));
    w = pool_.spawn(config_);
  }

  bool busy() const {
    for (const WorkerProc& w : pool_.workers) {
      if (w.live() && w.shard >= 0) return true;
    }
    return false;
  }

  void quarantine_shard(std::size_t s) {
    const ShardState& st = shards_[s];
    ++report.counters.shards_quarantined;
    report.quarantined_shards.push_back(s);
    for (std::size_t g = st.range.group_begin; g < st.range.group_end; ++g) {
      if (done_[g] != 0) continue;
      done_[g] = 1;
      --remaining_;
      ++report.groups_quarantined;
    }
    progress_(done_);
  }

  void shard_failed(std::size_t s) {
    ShardState& st = shards_[s];
    std::uint64_t undone = 0;
    for (std::size_t g = st.range.group_begin; g < st.range.group_end; ++g) {
      undone += done_[g] == 0 ? 1 : 0;
    }
    if (undone == 0) {
      // Every group is in (the worker failed after delivering them, or a
      // re-run found them delivered): a re-run would yield only duplicates.
      ++report.shards_completed;
      return;
    }
    ++st.failures;
    if (st.failures >= config_.max_attempts_per_shard) {
      quarantine_shard(s);
      return;
    }
    // Rebalance: back at the FRONT so the oldest unfinished work re-runs
    // first and the merge cursor unblocks as soon as possible.
    retried_groups += undone;
    queue_.push_front(s);
    ++report.counters.shards_rebalanced;
  }

  /// Kills the worker in slot `w` and, while the call has groups
  /// outstanding, replaces it in the same slot (so references to other
  /// slots stay valid) when it held a shard or work is queued. An idle
  /// worker's death with nothing queued leaves its slot to the next call.
  void fail_worker(WorkerProc& w, const std::string& why) {
    if (!w.live()) return;
    const std::int64_t s = w.shard;
    kill_and_reap(w);
    if (s >= 0) shard_failed(static_cast<std::size_t>(s));
    if (remaining_ > 0 && (s >= 0 || !queue_.empty())) respawn(w, why);
  }

  void dispatch() {
    for (WorkerProc& w : pool_.workers) {
      if (queue_.empty()) break;
      if (!w.live() || w.shard >= 0) continue;
      const std::size_t s = queue_.front();
      const ShardRange& range = shards_[s].range;
      try {
        // The context goes where it is missing, the call frame to each
        // worker once per call; the worker reads them in order before the
        // assignment.
        if (w.context != pool_.context_gen) {
          write_frame(w.fd, pool_.context);
          w.context = pool_.context_gen;
        }
        if (w.call != pool_.calls) {
          write_frame(w.fd, call_);
          w.call = pool_.calls;
        }
        write_frame(w.fd, MsgType::kShardAssign,
                    encode_shard_assign(
                        ShardAssignMsg{s, range.group_begin, range.group_end}));
      } catch (const WireError& e) {
        fail_worker(w, e.what());  // shard stays queued (popped on success)
        continue;
      }
      queue_.pop_front();
      w.shard = static_cast<std::int64_t>(s);
      w.last_heard = Clock::now();  // an idle worker owes no heartbeat
      ++report.counters.shards_dispatched;
    }
  }

  void handle_frame(WorkerProc& w, Frame frame) {
    switch (frame.type) {
      case MsgType::kHello:
        decode_hello(frame.payload);  // validates magic + version
        break;
      case MsgType::kCallReady: {
        const CallReadyMsg msg = decode_call_ready(frame.payload);
        if (!have_ready) {
          // Every worker scrubs the identical call; record once.
          ready = msg;
          have_ready = true;
        }
        break;
      }
      case MsgType::kGroupResult: {
        GroupResultMsg msg = decode_group_result(std::move(frame.payload));
        const std::size_t g = msg.group;
        IDG_CHECK(g < done_.size(),
                  "worker reported a result for out-of-range group " << g);
        if (done_[g] != 0) break;  // duplicate from a rebalanced shard
        done_[g] = 1;
        --remaining_;
        if (msg.kind != ResultKind::kSkipped) store_(g, std::move(msg));
        progress_(done_);
        break;
      }
      case MsgType::kShardDone: {
        const std::uint64_t s = decode_shard_done(frame.payload);
        if (s >= shards_.size() || w.shard != static_cast<std::int64_t>(s)) {
          fail_worker(w, "worker completed a shard it was not assigned");
          break;
        }
        ++report.shards_completed;
        w.shard = -1;
        break;
      }
      case MsgType::kShardError: {
        const ShardErrorMsg err = decode_shard_error(frame.payload);
        if (err.cancelled != 0) {
          // Cancellation is final (supervisor semantics): never rebalanced.
          throw CancelledError(err.message);
        }
        const std::int64_t s = w.shard;
        w.shard = -1;  // the worker survives and stays usable
        if (s >= 0 && static_cast<std::uint64_t>(s) == err.shard) {
          shard_failed(static_cast<std::size_t>(s));
        }
        break;
      }
      default:
        fail_worker(w, std::string("unexpected ") + to_string(frame.type) +
                           " frame from a worker");
        break;
    }
  }

  void poll_once() {
    std::vector<WorkerProc>& workers = pool_.workers;
    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (!workers[i].live()) continue;
      fds.push_back(pollfd{workers[i].fd, POLLIN, 0});
      owner.push_back(i);
    }
    IDG_CHECK(!fds.empty(),
              "no live shard workers remain with " << remaining_
                                                   << " group(s) unfinished");
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0) {
      IDG_CHECK(errno == EINTR, "poll failed: " << std::strerror(errno));
      return;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerProc& w = workers[owner[i]];
      if (!w.live()) continue;
      try {
        std::optional<Frame> frame = read_frame(w.fd);
        if (!frame) {
          throw WireError("worker closed its channel unexpectedly");
        }
        w.last_heard = Clock::now();
        handle_frame(w, std::move(*frame));
      } catch (const WireError& e) {
        fail_worker(w, e.what());
      }
    }
  }

  void check_heartbeats() {
    if (config_.heartbeat_ms == 0) return;
    const auto deadline = std::chrono::milliseconds(config_.heartbeat_ms);
    for (WorkerProc& w : pool_.workers) {
      // Only workers holding a shard owe liveness: an idle worker has
      // nothing to say, and context/call decode time is bounded by the
      // send/receive timeouts on the channel itself.
      if (!w.live() || w.shard < 0) continue;
      if (Clock::now() - w.last_heard > deadline) {
        fail_worker(w, "heartbeat deadline (" +
                           std::to_string(config_.heartbeat_ms) +
                           " ms) exceeded");
      }
    }
  }

  const ShardConfig& config_;
  WorkerPool& pool_;
  const Plan& plan_;
  const RunControl& ctl_;
  SealedFrame call_;
  StoreFn store_;
  ProgressFn progress_;

  std::vector<ShardState> shards_;
  std::deque<std::size_t> queue_;
  std::vector<std::uint8_t> done_;
  std::size_t remaining_ = 0;
  std::uint32_t respawns_ = 0;
};

std::uint64_t count_flagged(std::span<const WorkItem> items, FlagView flags) {
  if (flags.size() == 0) return 0;
  std::uint64_t n = 0;
  for (const WorkItem& item : items) {
    for (int t = 0; t < item.nr_timesteps; ++t) {
      for (int c = 0; c < item.nr_channels; ++c) {
        n += flags(static_cast<std::size_t>(item.baseline),
                   static_cast<std::size_t>(item.time_begin + t),
                   static_cast<std::size_t>(item.channel_begin + c)) != 0
                 ? 1
                 : 0;
      }
    }
  }
  return n;
}

}  // namespace

ShardedBackend::ShardedBackend(const Parameters& params, ShardConfig config)
    : params_(params), config_(std::move(config)) {
  params_.validate();
  IDG_CHECK(config_.nr_workers >= 1,
            "a sharded backend needs at least one worker");
  IDG_CHECK(config_.max_attempts_per_shard >= 1,
            "max_attempts_per_shard must be at least 1");
  // The workers resolve the same name; reject a precision mismatch here,
  // before any of them is spawned.
  check_accumulation(kernels::kernel_set(config_.kernel_set), params);
}

ShardedBackend::~ShardedBackend() = default;

ShardRunReport ShardedBackend::report() const {
  std::lock_guard lock(mutex_);
  return report_;
}

void ShardedBackend::reset_report() {
  std::lock_guard lock(mutex_);
  report_ = ShardRunReport{};
}

std::vector<int> ShardedBackend::worker_pids() const {
  const std::lock_guard lock(call_mutex_);
  std::vector<int> pids;
  if (pool_ != nullptr) {
    for (const WorkerProc& w : pool_->workers) {
      if (w.live()) pids.push_back(static_cast<int>(w.pid));
    }
  }
  return pids;
}

WorkerPool& ShardedBackend::pool_for(const Plan& plan,
                                     ArrayView<const UVW, 2> uvw,
                                     FlagView flags,
                                     ArrayView<const Jones, 4> aterms) const {
  if (pool_ == nullptr) pool_ = std::make_unique<WorkerPool>();
  std::string context = encode_context(plan, uvw, aterms, flags,
                                       config_.kernel_set,
                                       config_.worker_retries);
  // Compared byte for byte, not by hash: a false match would grid stale
  // uvw without a sound.
  if (context != pool_->context.payload) {
    pool_->context = seal_frame(MsgType::kContext, std::move(context));
    ++pool_->context_gen;
  }
  ++pool_->calls;
  return *pool_;
}

void ShardedBackend::record_call(const ShardRunReport& call,
                                 std::uint64_t retried_groups, double seconds,
                                 obs::MetricsSink& sink) const {
  sink.record(stage::kShard, seconds);
  sink.record_shard(stage::kShard, call.counters);
  if (retried_groups > 0 || call.groups_quarantined > 0) {
    sink.record_recovery(stage::kShard, retried_groups,
                         call.groups_quarantined, 0);
  }
  std::lock_guard lock(mutex_);
  report_.counters += call.counters;
  report_.shards_completed += call.shards_completed;
  report_.groups_quarantined += call.groups_quarantined;
  report_.quarantined_shards.insert(report_.quarantined_shards.end(),
                                    call.quarantined_shards.begin(),
                                    call.quarantined_shards.end());
}

void ShardedBackend::grid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                          ArrayView<const Visibility, 3> visibilities,
                          FlagView flags, ArrayView<const Jones, 4> aterms,
                          ArrayView<cfloat, 3> grid, obs::MetricsSink& sink,
                          const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  check_grid_stack(params, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  const std::size_t n = params.subgrid_size;
  check_aterm_raster(aterms, n);
  // Under kReject a bad sample raises the synchronous executor's named
  // error here, before anything is shipped: a worker that raised it would
  // exit, and the pool would respawn it until the respawn limit.
  if (params.bad_sample_policy == BadSamplePolicy::kReject)
    scrub_gridder_input(params, plan, visibilities, flags, ctl.cancel);
  const auto t0 = Clock::now();

  // In-order merge state: results park in `pending` until every earlier
  // group is done, then the adder applies them strictly ascending — the
  // exact addition sequence of a single-process run (bit-identity).
  const std::size_t nr_groups = plan.nr_work_groups();
  std::vector<GroupResultMsg> pending(nr_groups);
  std::vector<std::uint8_t> has_result(nr_groups, 0);
  std::size_t next_apply = 0;
  Array4D<cfloat> subgrids = make_group_subgrids(params);
  double merge_seconds = 0.0;

  const std::lock_guard call_lock(call_mutex_);
  Run run(
      config_, pool_for(plan, uvw, flags, aterms), plan, ctl,
      seal_frame(MsgType::kCallGrid,
                 encode_grid_call(ctl.skip_groups, visibilities)),
      [&](std::size_t g, GroupResultMsg&& msg) {
        const auto items = plan.work_group(g);
        IDG_CHECK(msg.kind == ResultKind::kSubgrids,
                  "grid worker delivered a non-subgrid result for group "
                      << g);
        const std::size_t bytes =
            items.size() * static_cast<std::size_t>(kNrPolarizations) * n *
            n * sizeof(cfloat);
        IDG_CHECK(msg.count == items.size() && msg.data().size() == bytes,
                  "subgrid result for group " << g << " has the wrong size");
        pending[g] = std::move(msg);
        has_result[g] = 1;
      },
      [&](const std::vector<std::uint8_t>& done) {
        while (next_apply < nr_groups && done[next_apply] != 0) {
          if (has_result[next_apply] != 0) {
            const auto m0 = Clock::now();
            const std::string_view data = pending[next_apply].data();
            std::memcpy(subgrids.data(), data.data(), data.size());
            add_group_to_grid(params, plan, next_apply, subgrids.cview(),
                              grid, sink, /*parallel=*/false);
            const double dt = seconds_since(m0);
            merge_seconds += dt;
            sink.record(stage::kShardMerge, dt);
            pending[next_apply] = GroupResultMsg{};  // free the payload
          }
          ++next_apply;
        }
      });
  run.execute();

  // Metric parity with the single-process grid loop: scrub data quality
  // (from the first worker's report — every worker scrubs identically)
  // and the plan-derived analytic op counters.
  if (run.have_ready) {
    sink.record_data_quality(idg::stage::kScrub, run.ready.scrubbed,
                             run.ready.skipped_samples);
  }
  sink.record_ops(idg::stage::kGridder, gridder_op_counts(plan));
  sink.record_ops(idg::stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(idg::stage::kAdder, adder_op_counts(plan));

  run.report.counters.merge_seconds = merge_seconds;
  record_call(run.report, run.retried_groups, seconds_since(t0), sink);
}

void ShardedBackend::degrid(const Plan& plan, ArrayView<const UVW, 2> uvw,
                            ArrayView<const cfloat, 3> grid, FlagView flags,
                            ArrayView<const Jones, 4> aterms,
                            ArrayView<Visibility, 3> visibilities,
                            obs::MetricsSink& sink,
                            const RunControl& ctl_in) const {
  const Parameters& params = parameters();
  check_grid_stack(params, plan.items(), grid);
  const ScopedRunControl scoped(ctl_in, params.deadline_ms);
  const RunControl& ctl = scoped.ctl();
  check_aterm_raster(aterms, params.subgrid_size);
  // As in grid(): a flagged planned sample under kReject fails here.
  if (params.bad_sample_policy == BadSamplePolicy::kReject &&
      flags.size() != 0)
    scrub_degrid_plan(params, plan, flags);
  const auto t0 = Clock::now();

  double merge_seconds = 0.0;
  std::uint64_t zeroed = 0;

  const std::lock_guard call_lock(call_mutex_);
  Run run(
      config_, pool_for(plan, uvw, flags, aterms), plan, ctl,
      seal_frame(MsgType::kCallDegrid,
                 encode_degrid_call(ctl.skip_groups, grid)),
      [&](std::size_t g, GroupResultMsg&& msg) {
        const auto items = plan.work_group(g);
        IDG_CHECK(msg.kind == ResultKind::kVisibilities,
                  "degrid worker delivered a non-visibility result for group "
                      << g);
        std::size_t expected = 0;
        for (const WorkItem& item : items) expected += item.nr_visibilities();
        IDG_CHECK(
            msg.count == expected &&
                msg.data().size() == expected * sizeof(Visibility),
            "predicted rect result for group " << g << " has the wrong size");
        // Scatter the packed rects, one (item, timestep) row of channels at
        // a time; items cover disjoint blocks so the arrival order across
        // groups cannot change the result.
        const auto m0 = Clock::now();
        const char* src = msg.data().data();
        for (const WorkItem& item : items) {
          const std::size_t row =
              static_cast<std::size_t>(item.nr_channels) * sizeof(Visibility);
          for (int t = 0; t < item.nr_timesteps; ++t) {
            std::memcpy(&visibilities(
                            static_cast<std::size_t>(item.baseline),
                            static_cast<std::size_t>(item.time_begin + t),
                            static_cast<std::size_t>(item.channel_begin)),
                        src, row);
            src += row;
          }
        }
        // What zero_flagged_outputs() zeroed worker-side for this group —
        // keeps the scrub data-quality counter identical to a
        // single-process degrid.
        if (params.bad_sample_policy == BadSamplePolicy::kZeroAndContinue) {
          zeroed += count_flagged(items, flags);
        }
        sink.record_bytes(idg::stage::kSplitter,
                          splitter_moved_bytes(params, items.size()));
        const double dt = seconds_since(m0);
        merge_seconds += dt;
        sink.record(stage::kShardMerge, dt);
      },
      [](const std::vector<std::uint8_t>&) {});
  run.execute();

  if (flags.size() != 0 && run.have_ready) {
    sink.record_data_quality(idg::stage::kScrub, zeroed + run.ready.scrubbed,
                             run.ready.skipped_samples);
  }
  sink.record_ops(idg::stage::kSplitter, splitter_op_counts(plan));
  sink.record_ops(idg::stage::kSubgridFft, subgrid_fft_op_counts(plan));
  sink.record_ops(idg::stage::kDegridder, degridder_op_counts(plan));

  run.report.counters.merge_seconds = merge_seconds;
  record_call(run.report, run.retried_groups, seconds_since(t0), sink);
}

std::unique_ptr<GridderBackend> make_sharded_backend(const Parameters& params,
                                                     ShardConfig config) {
  return std::make_unique<ShardedBackend>(params, std::move(config));
}

void install_sigterm_drain() { install_drain_signal(SIGTERM); }

void install_drain_signal(int signo) {
  drain_slot();  // force token construction before any signal can arrive
  struct sigaction sa = {};
  sa.sa_handler = handle_sigterm;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(signo, &sa, nullptr);
}

std::uint32_t respawn_backoff_ms(std::uint32_t nth_respawn,
                                 std::uint32_t base_ms,
                                 std::uint32_t cap_ms) {
  if (nth_respawn <= 1 || base_ms == 0) return 0;
  const std::uint32_t shift = std::min<std::uint32_t>(nth_respawn - 1, 20);
  const std::uint64_t full = std::min<std::uint64_t>(
      cap_ms, static_cast<std::uint64_t>(base_ms) << shift);
  // Deterministic jitter (splitmix64 of the respawn ordinal): half the
  // window is guaranteed, the other half varies per ordinal — bounded,
  // reproducible, and desynchronized across ordinals.
  std::uint64_t h = (static_cast<std::uint64_t>(nth_respawn) + 1) *
                    0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const std::uint64_t half = full / 2;
  return static_cast<std::uint32_t>(half + (half > 0 ? h % (half + 1) : 0));
}

bool drain_requested() { return g_drain != 0; }

void request_drain() {
  g_drain = 1;
  drain_slot().load(std::memory_order_acquire)->request_cancel();
}

void reset_drain() {
  g_drain = 0;
  static auto* const retired = new std::vector<CancelToken*>;
  retired->push_back(
      drain_slot().exchange(new CancelToken, std::memory_order_acq_rel));
}

const CancelToken& drain_token() {
  return *drain_slot().load(std::memory_order_acquire);
}

}  // namespace idg::shard
