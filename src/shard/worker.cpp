#include "shard/worker.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/processor.hpp"
#include "idg/scrub.hpp"
#include "kernels/optimized.hpp"
#include "obs/sink.hpp"
#include "shard/protocol.hpp"

namespace idg::shard {

namespace {

/// Deterministic test kill: IDG_SHARD_TEST_DIE="<group>[@<call>]:<marker>"
/// makes the worker SIGKILL itself right before computing that group, in
/// any call or only in the worker's <call>-th call (counted from 1 by each
/// worker process) — but only once: the first worker to arrive creates the
/// marker file atomically (O_EXCL) and dies; later arrivals find the marker
/// and survive the same group. No timing, no randomness.
struct TestDie {
  std::int64_t group = -1;
  std::uint64_t call = 0;  ///< 0: any call
  std::string marker;
  std::uint64_t calls = 0;  ///< call frames this worker has received
};

std::optional<TestDie> parse_test_die() {
  const char* spec = std::getenv("IDG_SHARD_TEST_DIE");
  if (spec == nullptr) return std::nullopt;
  const char* colon = std::strchr(spec, ':');
  IDG_CHECK(colon != nullptr && colon != spec && colon[1] != '\0',
            "IDG_SHARD_TEST_DIE must be '<group>[@<call>]:<marker-path>', "
            "got '" << spec << "'");
  const std::string where(spec, colon);
  TestDie die;
  die.group = std::atoll(where.c_str());
  if (const std::size_t at = where.find('@'); at != std::string::npos) {
    die.call = std::strtoull(where.c_str() + at + 1, nullptr, 10);
  }
  die.marker = colon + 1;
  return die;
}

void maybe_die_at(const std::optional<TestDie>& die, std::size_t group) {
  if (!die || static_cast<std::int64_t>(group) != die->group) return;
  if (die->call != 0 && die->call != die->calls) return;
  const int fd =
      ::open(die->marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return;  // marker exists: this kill already happened
  ::close(fd);
  ::raise(SIGKILL);
}

/// Runs one group's step with bounded in-worker retries, the same for
/// grid and degrid shards: a StageFailure re-runs the group (the kernels
/// are pure functions of their inputs, and a degrid step overwrites the
/// group's visibilities, so the retry is bit-identical); a CancelledError
/// is never retried, and the last attempt's failure propagates and
/// abandons the shard.
template <typename Step>
void run_with_retries(std::uint32_t attempts, const Step& step) {
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      step();
      return;
    } catch (const StageFailure&) {
      if (attempt >= attempts) throw;
    }
  }
}

/// The decoded context and what the worker derives from it once for every
/// call: the kernel set's Processor (and its taper), the group steps'
/// scratch subgrids, and — built on the first degrid call — the degrid
/// scrub and the scratch cube the degrid step writes.
class Context {
 public:
  explicit Context(ContextMsg msg)
      : msg_(std::move(msg)),
        proc_(params(), kernels::kernel_set(msg_.kernel_set)),
        subgrids_(make_group_subgrids(params())),
        data_(proc_.kernel_data(msg_.plan, msg_.uvw.cview(),
                                msg_.aterms.cview())) {}
  Context(const Context&) = delete;  // data_ views msg_ and proc_
  Context& operator=(const Context&) = delete;

  const ContextMsg& msg() const { return msg_; }
  const Plan& plan() const { return msg_.plan; }
  const Parameters& params() const { return msg_.plan.parameters(); }
  const Processor& processor() const { return proc_; }
  const KernelData& kernel_data() const { return data_; }
  ArrayView<cfloat, 4> subgrids() { return subgrids_.view(); }
  std::uint32_t attempts() const { return msg_.worker_retries + 1; }

  /// The degrid half, built on first use: a context that only grids never
  /// pays for the scratch cube.
  struct Degrid {
    DegridScrub scrub;
    Array3D<Visibility> predicted;
  };
  Degrid& degrid() {
    if (degrid_ == nullptr) {
      degrid_ = std::make_unique<Degrid>(
          Degrid{scrub_degrid_plan(params(), plan(), msg_.flag_view()),
                 Array3D<Visibility>(msg_.uvw.dim(0), msg_.uvw.dim(1),
                                     plan().wavenumbers().size())});
    }
    return *degrid_;
  }

 private:
  ContextMsg msg_;
  Processor proc_;
  Array4D<cfloat> subgrids_;
  KernelData data_;
  std::unique_ptr<Degrid> degrid_;
};

/// One gridding call: the scrubbed cube and the call's deadline token.
class GridCall {
 public:
  GridCall(Context& context, GridCallMsg msg)
      : context_(context),
        msg_(std::move(msg)),
        token_(context.params().deadline_ms),
        scope_(token_),
        scrubbed_(scrub_gridder_input(
            context.params(), context.plan(), checked(msg_.visibilities),
            context.msg().flag_view(), &token_)) {}

  CallReadyMsg ready() const {
    return CallReadyMsg{scrubbed_.report().scrubbed(),
                        scrubbed_.report().skipped_samples, 1};
  }

  void run_shard(const ShardAssignMsg& assign, int out_fd,
                 const std::optional<TestDie>& die, std::int64_t& current) {
    const Plan& plan = context_.plan();
    const Parameters& params = context_.params();
    IDG_CHECK(assign.group_end <= plan.nr_work_groups(),
              "shard assignment exceeds the plan's work groups");
    RunControl ctl;
    ctl.cancel = &token_;
    ctl.skip_groups = msg_.skip_groups;
    const ArrayView<cfloat, 4> subgrids = context_.subgrids();
    for (std::size_t g = assign.group_begin; g < assign.group_end; ++g) {
      current = static_cast<std::int64_t>(g);
      token_.check("shard.worker.grid", current);
      GroupResultHead result{g, ResultKind::kSkipped, 0};
      std::string_view data;
      if (!scrubbed_.group_skipped(g) && !ctl.group_skipped(g)) {
        maybe_die_at(die, g);
        const auto items = plan.work_group(g);
        run_with_retries(context_.attempts(), [&] {
          context_.processor().grid_group_subgrids(
              plan, g, context_.kernel_data(), scrubbed_.view(), subgrids,
              obs::null_sink(), ctl, kProcessorGridSites);
        });
        const std::size_t n = params.subgrid_size;
        result.kind = ResultKind::kSubgrids;
        result.count = items.size();
        data = std::string_view(
            reinterpret_cast<const char*>(subgrids.data()),
            items.size() * static_cast<std::size_t>(kNrPolarizations) * n *
                n * sizeof(cfloat));
      }
      write_group_result(out_fd, result, data);
    }
  }

 private:
  /// The cube must be the one the context's uvw and channels describe:
  /// the plan's items index it.
  ArrayView<const Visibility, 3> checked(const Array3D<Visibility>& vis) {
    const ContextMsg& ctx = context_.msg();
    IDG_CHECK(vis.dim(0) == ctx.uvw.dim(0) && vis.dim(1) == ctx.uvw.dim(1) &&
                  vis.dim(2) == ctx.plan.wavenumbers().size(),
              "grid call visibilities are " << vis.dim(0) << "x" << vis.dim(1)
                                            << "x" << vis.dim(2)
                                            << ", not the context's shape");
    return vis.cview();
  }

  Context& context_;
  GridCallMsg msg_;
  CancelToken token_;
  CancelScope scope_;
  ScrubbedVisibilities scrubbed_;
};

/// One degridding call. Each shard assignment runs the Processor's degrid
/// step group by group into the context's scratch cube, under the same
/// retries as a grid shard, and ships each group's predicted rects packed
/// in item order (items cover disjoint rects, so the coordinator's scatter
/// is order-insensitive and bit-identical to a single-process degrid).
class DegridCall {
 public:
  DegridCall(Context& context, DegridCallMsg msg)
      : context_(context),
        msg_(std::move(msg)),
        token_(context.params().deadline_ms),
        scope_(token_) {
    // The splitter indexes the grid by the plan's items and w-planes.
    check_grid_stack(context.params(), context.plan().items(),
                     msg_.grid.cview());
  }

  CallReadyMsg ready() {
    const DegridScrub& scrub = context_.degrid().scrub;
    return CallReadyMsg{
        scrub.report.scrubbed(), scrub.report.skipped_samples,
        static_cast<std::uint8_t>(
            context_.msg().flag_view().size() != 0 ? 1 : 0)};
  }

  void run_shard(const ShardAssignMsg& assign, int out_fd,
                 const std::optional<TestDie>& die, std::int64_t& current) {
    const Plan& plan = context_.plan();
    Context::Degrid& degrid = context_.degrid();
    IDG_CHECK(assign.group_end <= plan.nr_work_groups(),
              "shard assignment exceeds the plan's work groups");
    RunControl ctl;
    ctl.cancel = &token_;
    ctl.skip_groups = msg_.skip_groups;
    for (std::size_t g = assign.group_begin; g < assign.group_end; ++g) {
      current = static_cast<std::int64_t>(g);
      token_.check("shard.worker.degrid", current);
      GroupResultHead result{g, ResultKind::kSkipped, 0};
      packed_.clear();
      if (!degrid.scrub.group_skipped(g) && !ctl.group_skipped(g)) {
        maybe_die_at(die, g);
        run_with_retries(context_.attempts(), [&] {
          context_.processor().degrid_group(
              plan, g, context_.kernel_data(), msg_.grid.cview(),
              context_.msg().flag_view(), context_.subgrids(),
              degrid.predicted.view(), obs::null_sink(), ctl,
              kProcessorDegridSites);
        });
        result.kind = ResultKind::kVisibilities;
        // Each (item, timestep) row of channels is contiguous in the cube.
        for (const WorkItem& item : plan.work_group(g)) {
          const std::size_t row =
              static_cast<std::size_t>(item.nr_channels) * sizeof(Visibility);
          for (int t = 0; t < item.nr_timesteps; ++t) {
            packed_.append(
                reinterpret_cast<const char*>(&degrid.predicted(
                    static_cast<std::size_t>(item.baseline),
                    static_cast<std::size_t>(item.time_begin + t),
                    static_cast<std::size_t>(item.channel_begin))),
                row);
          }
          result.count += item.nr_visibilities();
        }
      }
      write_group_result(out_fd, result, packed_);
    }
  }

 private:
  Context& context_;
  DegridCallMsg msg_;
  CancelToken token_;
  CancelScope scope_;
  std::string packed_;  ///< one group's rects, reused across groups
};

int worker_loop(int in_fd, int out_fd) {
  std::optional<TestDie> die = parse_test_die();
  HelloMsg hello;
  hello.pid = static_cast<std::int32_t>(::getpid());
  write_frame(out_fd, MsgType::kHello, encode_hello(hello));

  // A call refers to its context, so it goes first whenever either changes.
  std::unique_ptr<Context> context;
  std::unique_ptr<GridCall> grid_call;
  std::unique_ptr<DegridCall> degrid_call;
  while (std::optional<Frame> frame = read_frame(in_fd)) {
    switch (frame->type) {
      case MsgType::kContext:
        grid_call.reset();
        degrid_call.reset();
        context.reset();  // one context in memory at a time
        context = std::make_unique<Context>(
            decode_context(std::move(frame->payload)));
        break;
      case MsgType::kCallGrid:
        IDG_CHECK(context != nullptr, "grid call received before a context");
        grid_call.reset();
        degrid_call.reset();
        if (die) ++die->calls;
        grid_call = std::make_unique<GridCall>(
            *context, decode_grid_call(std::move(frame->payload)));
        write_frame(out_fd, MsgType::kCallReady,
                    encode_call_ready(grid_call->ready()));
        break;
      case MsgType::kCallDegrid:
        IDG_CHECK(context != nullptr,
                  "degrid call received before a context");
        grid_call.reset();
        degrid_call.reset();
        if (die) ++die->calls;
        degrid_call = std::make_unique<DegridCall>(
            *context, decode_degrid_call(std::move(frame->payload)));
        write_frame(out_fd, MsgType::kCallReady,
                    encode_call_ready(degrid_call->ready()));
        break;
      case MsgType::kShardAssign: {
        const ShardAssignMsg assign = decode_shard_assign(frame->payload);
        IDG_CHECK(grid_call != nullptr || degrid_call != nullptr,
                  "shard assignment received before any call");
        ShardErrorMsg error;
        error.shard = assign.shard;
        std::int64_t current = -1;
        try {
          if (grid_call != nullptr) {
            grid_call->run_shard(assign, out_fd, die, current);
          } else {
            degrid_call->run_shard(assign, out_fd, die, current);
          }
          write_frame(out_fd, MsgType::kShardDone,
                      encode_shard_done(assign.shard));
          break;
        } catch (const CancelledError& e) {
          error.cancelled = 1;
          error.message = e.what();
        } catch (const WireError&) {
          throw;  // the channel itself is gone — nothing left to report on
        } catch (const std::exception& e) {
          error.message = e.what();
        }
        error.group = current;
        write_frame(out_fd, MsgType::kShardError, encode_shard_error(error));
        break;
      }
      default:
        throw Error(std::string("shard worker received an unexpected ") +
                    to_string(frame->type) + " frame");
    }
  }
  return 0;  // the coordinator closed the channel: its shutdown
}

}  // namespace

bool is_worker_invocation(int argc, char** argv) {
  return argc >= 2 && std::strcmp(argv[1], kWorkerFlag) == 0;
}

int worker_entry(int in_fd, int out_fd) {
  // IDG_FAULT_WORKER replaces inherited arms; fire counts always reset so
  // every (re)spawned worker replays the identical deterministic schedule.
  // They then last for the worker's lifetime, across all its calls.
  fault::Injector::instance().rearm_for_worker();
  try {
    return worker_loop(in_fd, out_fd);
  } catch (const WireError&) {
    // The channel died under us: the coordinator either went away or closed
    // us mid-delivery during its shutdown/rebalance — it owns recovery
    // either way, and a stderr line per torn-down worker is just noise.
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idg-shard-worker[%d]: %s\n",
                 static_cast<int>(::getpid()), e.what());
    return 1;
  }
}

int maybe_run_worker(int argc, char** argv) {
  if (!is_worker_invocation(argc, argv)) return -1;
  return worker_entry();
}

}  // namespace idg::shard
