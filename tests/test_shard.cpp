// Sharded-execution suite (ctest label `faults`, DESIGN.md §16).
//
// Pins the multi-process coordinator end to end:
//   1. the IDGSHRD1 wire protocol: framing, CRC/truncation rejection, and
//      job codec round-trip fidelity,
//   2. the shard planner: coverage, contiguity, balance, determinism,
//   3. bit-identity: for any worker count — and any deterministic
//      mid-shard worker kill schedule — the sharded grid/degrid result is
//      memcmp-identical to the single-process run,
//   4. the failure model: respawn + rebalance after a kill, quarantine of
//      a poison shard (== the same run with those groups skip-masked),
//      coordinator-side protocol-fault recovery, and cancellation/drain
//      semantics (a cancelled run never reports a shard complete),
//   5. the pool that serves a backend's calls: spawned once, workers
//      replaced after deaths between or within calls, the context shipped
//      again when it changes, no frame crossing from one call into the
//      next, survival of the thread that spawned it, and a destructor that
//      reaps every worker.
//
// This binary doubles as its own worker: main() dispatches
// shard::maybe_run_worker() before gtest sees argv, so the coordinator's
// default /proc/self/exe worker path re-enters here in worker mode.
// Injection cases GTEST_SKIP unless built with -DIDG_FAULT_INJECTION=ON.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/backend.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/wplane.hpp"
#include "kernels/optimized.hpp"
#include "mutate.hpp"
#include "obs/sink.hpp"
#include "shard/coordinator.hpp"
#include "shard/planner.hpp"
#include "shard/protocol.hpp"
#include "shard/worker.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;

// --- fixture (mirrors test_supervisor.cpp) -----------------------------------

struct Setup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
  std::size_t planes = 1;  ///< w-planes of the grid stack

  /// `planes` > 1 builds a w-stacked plan whose grid is a plane stack.
  static Setup make(BadSamplePolicy policy = BadSamplePolicy::kZeroAndContinue,
                    int planes = 1) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 32;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    cfg.subgrid_size = 16;
    auto ds = sim::make_benchmark_dataset(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 4;
    params.work_group_size = 4;  // several work groups to shard
    params.bad_sample_policy = policy;
    const WPlaneModel wplanes =
        planes > 1 ? WPlaneModel::fit(planes, ds.uvw, ds.frequencies)
                   : WPlaneModel();
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines, &wplanes);
    auto aterms =
        sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms),
            static_cast<std::size_t>(planes)};
  }

  Array3D<cfloat> grid_with(const GridderBackend& backend,
                            obs::MetricsSink& sink = obs::null_sink(),
                            const RunControl& ctl = RunControl{}) const {
    Array3D<cfloat> grid(planes * kNrPolarizations, params.grid_size,
                         params.grid_size);
    backend.grid(plan, ds.uvw.cview(), ds.visibilities.cview(), ds.flag_view(),
                 aterms.cview(), grid.view(), sink, ctl);
    return grid;
  }

  Array3D<Visibility> degrid_with(const GridderBackend& backend,
                                  const Array3D<cfloat>& grid,
                                  obs::MetricsSink& sink = obs::null_sink(),
                                  const RunControl& ctl = RunControl{}) const {
    Array3D<Visibility> vis(ds.visibilities.dim(0), ds.visibilities.dim(1),
                            ds.visibilities.dim(2));
    backend.degrid(plan, ds.uvw.cview(), grid.cview(), ds.flag_view(),
                   aterms.cview(), vis.view(), sink, ctl);
    return vis;
  }
};

template <typename T>
bool bit_identical(const Array3D<T>& a, const Array3D<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

shard::ShardConfig config_for(std::size_t workers, std::size_t shards = 0) {
  shard::ShardConfig sc;
  sc.nr_workers = workers;
  sc.nr_shards = shards;
  sc.heartbeat_ms = 60000;
  return sc;
}

/// RAII: no injection arms leak from one test into the next.
struct DisarmGuard {
  DisarmGuard() { fault::Injector::instance().disarm_all(); }
  ~DisarmGuard() { fault::Injector::instance().disarm_all(); }
};

#define SKIP_WITHOUT_INJECTION()                              \
  if (!fault::compiled_in()) {                                \
    GTEST_SKIP() << "build without -DIDG_FAULT_INJECTION=ON"; \
  }                                                           \
  DisarmGuard disarm_guard

/// RAII environment variable (workers inherit the coordinator's env).
struct EnvGuard {
  std::string name;
  EnvGuard(const char* n, const std::string& value) : name(n) {
    ::setenv(n, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name.c_str()); }
};

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

// --- 1. wire protocol --------------------------------------------------------

TEST(ProtocolTest, FramesRoundTripOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kHello, "payload bytes");
  shard::write_frame(sv[0], shard::MsgType::kShardDone, "");
  auto a = shard::read_frame(sv[1]);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->type, shard::MsgType::kHello);
  EXPECT_EQ(a->payload, "payload bytes");
  auto b = shard::read_frame(sv[1]);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->type, shard::MsgType::kShardDone);
  EXPECT_TRUE(b->payload.empty());
  ::close(sv[0]);
  EXPECT_FALSE(shard::read_frame(sv[1]).has_value());  // clean EOF
  ::close(sv[1]);
}

TEST(ProtocolTest, CorruptedPayloadFailsTheCrc) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kGroupResult, "abcdefgh");
  // Flip one payload byte in flight: 4 (type) + 8 (size) puts the payload
  // at offset 12.
  char buf[64];
  const ssize_t got = ::recv(sv[1], buf, sizeof(buf), 0);
  ASSERT_GT(got, 12);
  buf[13] ^= 0x40;
  ASSERT_EQ(::send(sv[0], buf, static_cast<size_t>(got), 0), got);
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ProtocolTest, MidFrameEofIsAWireErrorNotACleanShutdown) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  shard::write_frame(sv[0], shard::MsgType::kHello, "truncate me");
  char buf[64];
  const ssize_t got = ::recv(sv[1], buf, sizeof(buf), 0);
  ASSERT_GT(got, 6);
  ASSERT_EQ(::send(sv[0], buf, 6, 0), 6);  // resend only a prefix
  ::close(sv[0]);                          // ... then die mid-frame
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[1]);
}

TEST(ProtocolTest, AbsurdLengthFieldIsRejectedBeforeAllocation) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::uint32_t type = 1;
  const std::uint64_t size = ~0ull;  // 16 EiB "payload"
  char hdr[12];
  std::memcpy(hdr, &type, 4);
  std::memcpy(hdr + 4, &size, 8);
  ASSERT_EQ(::send(sv[0], hdr, sizeof(hdr), 0),
            static_cast<ssize_t>(sizeof(hdr)));
  EXPECT_THROW((void)shard::read_frame(sv[1]), shard::WireError);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ProtocolTest, SmallMessageCodecsRoundTrip) {
  shard::HelloMsg hello;
  hello.pid = 4242;
  const auto h = shard::decode_hello(shard::encode_hello(hello));
  EXPECT_EQ(h.pid, 4242);
  EXPECT_EQ(h.version, shard::kProtocolVersion);

  shard::ShardAssignMsg assign{7, 21, 34};
  const auto a = shard::decode_shard_assign(shard::encode_shard_assign(assign));
  EXPECT_EQ(a.shard, 7u);
  EXPECT_EQ(a.group_begin, 21u);
  EXPECT_EQ(a.group_end, 34u);

  const shard::GroupResultHead head{11, shard::ResultKind::kSubgrids, 3};
  const std::string data("\x01\x02\x00\x03", 4);
  const auto r =
      shard::decode_group_result(shard::encode_group_result(head, data));
  EXPECT_EQ(r.group, 11u);
  EXPECT_EQ(r.kind, shard::ResultKind::kSubgrids);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.data(), data);

  shard::ShardErrorMsg err;
  err.shard = 5;
  err.group = 9;
  err.cancelled = 1;
  err.message = "deadline of 10 ms exceeded";
  const auto e = shard::decode_shard_error(shard::encode_shard_error(err));
  EXPECT_EQ(e.shard, 5u);
  EXPECT_EQ(e.group, 9);
  EXPECT_EQ(e.cancelled, 1);
  EXPECT_EQ(e.message, err.message);

  EXPECT_EQ(shard::decode_shard_done(shard::encode_shard_done(13)), 13u);
}

/// The bytes write_fn puts on a channel.
template <typename WriteFn>
std::string wire_bytes(WriteFn&& write_fn) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  write_fn(sv[0]);
  ::close(sv[0]);
  std::string bytes;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::read(sv[1], buf, sizeof(buf))) > 0) {
    bytes.append(buf, static_cast<std::size_t>(got));
  }
  ::close(sv[1]);
  return bytes;
}

TEST(ProtocolTest, SealedAndScatteredFramesKeepThePlainFrameBytes) {
  // A sealed frame carries its CRC from seal_frame, and write_group_result
  // frames a result from the caller's buffer: both must put the same bytes
  // on the wire as write_frame over the encoded payload.
  const std::string payload = "context payload bytes";
  const std::string plain = wire_bytes([&](int fd) {
    shard::write_frame(fd, shard::MsgType::kContext, payload);
  });
  const shard::SealedFrame sealed =
      shard::seal_frame(shard::MsgType::kContext, payload);
  EXPECT_EQ(wire_bytes([&](int fd) { shard::write_frame(fd, sealed); }),
            plain);

  const shard::GroupResultHead head{5, shard::ResultKind::kVisibilities, 2};
  const std::string data(64, '\x5a');
  const std::string encoded = wire_bytes([&](int fd) {
    shard::write_frame(fd, shard::MsgType::kGroupResult,
                       shard::encode_group_result(head, data));
  });
  EXPECT_EQ(wire_bytes([&](int fd) {
              shard::write_group_result(fd, head, data);
            }),
            encoded);
  ASSERT_EQ(encoded.size(), 4 + 8 + 20 + data.size() + 4);
}

TEST(ProtocolTest, GridJobRoundTripsPlanAndArraysBitExactly) {
  // A gridding job is a context frame plus a grid call frame.
  const auto s = Setup::make();
  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  if (!skip.empty()) skip.front() = 1;
  const shard::ContextMsg context = shard::decode_context(
      shard::encode_context(s.plan, s.ds.uvw.cview(), s.aterms.cview(),
                            s.ds.flag_view(), "reference", 2));
  const shard::GridCallMsg call = shard::decode_grid_call(
      shard::encode_grid_call(skip, s.ds.visibilities.cview()));

  EXPECT_EQ(context.plan.nr_work_groups(), s.plan.nr_work_groups());
  EXPECT_EQ(context.plan.nr_planned_visibilities(),
            s.plan.nr_planned_visibilities());
  EXPECT_EQ(context.worker_retries, 2u);
  EXPECT_EQ(context.kernel_set, "reference");
  EXPECT_EQ(call.skip_groups, skip);
  ASSERT_EQ(context.uvw.size(), s.ds.uvw.size());
  EXPECT_EQ(std::memcmp(context.uvw.data(), s.ds.uvw.data(),
                        s.ds.uvw.size() * sizeof(UVW)),
            0);
  ASSERT_EQ(call.visibilities.size(), s.ds.visibilities.size());
  EXPECT_EQ(std::memcmp(call.visibilities.data(), s.ds.visibilities.data(),
                        s.ds.visibilities.size() * sizeof(Visibility)),
            0);
  // Work items must come back in their exact stamped order — the merge
  // cursor's bit-identity depends on it.
  for (std::size_t g = 0; g < s.plan.nr_work_groups(); ++g) {
    const auto mine = s.plan.work_group(g);
    const auto theirs = context.plan.work_group(g);
    ASSERT_EQ(mine.size(), theirs.size());
    EXPECT_EQ(std::memcmp(mine.data(), theirs.data(),
                          mine.size() * sizeof(WorkItem)),
              0);
  }
}

TEST(ProtocolTest, JobCountThatWrapsIsRejectedByName) {
  // 2^62 work items of 52 bytes are 13 * 2^64 bytes, which wraps a 64-bit
  // byte count to 0: the count must fail by name before it sizes a vector.
  static_assert(sizeof(WorkItem) == 52);
  const auto s = Setup::make();
  std::string payload =
      shard::encode_context(s.plan, s.ds.uvw.cview(), s.aterms.cview(),
                            s.ds.flag_view(), "reference", 0);
  const std::uint64_t nr_items = std::uint64_t{1} << 62;
  std::memcpy(payload.data() + sizeof(Parameters), &nr_items,
              sizeof(nr_items));  // the item count follows the parameters
  EXPECT_THROW((void)shard::decode_context(payload), Error);
}

/// The context, grid call and degrid call payloads of a small plan with
/// epsilon set, so that every Parameters field is in use; small enough to
/// mutate a thousand times under ASan.
struct SmallJob {
  std::string context;
  std::string grid_call;
  std::string degrid_call;
};

SmallJob small_job_payloads() {
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 4;
  cfg.nr_timesteps = 8;
  cfg.nr_channels = 2;
  cfg.grid_size = 64;
  cfg.subgrid_size = 8;
  const auto ds = sim::make_benchmark_dataset(cfg);
  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = 4;
  params.work_group_size = 4;
  params.epsilon = 0.1;
  const Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  EXPECT_GT(plan.nr_work_groups(), 1u);
  const auto aterms =
      sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
  const Array3D<cfloat> grid(kNrPolarizations, cfg.grid_size, cfg.grid_size);
  const std::vector<std::uint8_t> skip(plan.nr_work_groups(), 0);
  return {shard::encode_context(plan, ds.uvw.cview(), aterms.cview(),
                                ds.flag_view(), "optimized", 1),
          shard::encode_grid_call(skip, ds.visibilities.cview()),
          shard::encode_degrid_call(skip, grid.cview())};
}

TEST(ProtocolTest, CorruptEpsilonFlagIsRejectedByName) {
  // Parameters travel as their object bytes. The engaged flag of
  // `epsilon` is a bool, which may hold only 0 or 1.
  std::string payload = small_job_payloads().context;
  const std::size_t flag = offsetof(Parameters, epsilon) + sizeof(double);
  ASSERT_EQ(payload[flag], 1);  // the payload carries epsilon = 0.1
  EXPECT_NO_THROW((void)shard::decode_context(payload));
  payload[flag] = 2;
  EXPECT_THROW((void)shard::decode_context(payload), Error);
}

TEST(ProtocolTest, MutatedJobsDecodeOrFailByName) {
  // The decoders see a payload after read_frame has checked its CRC, so a
  // mutated payload is a mutated frame with its CRC recomputed. Every
  // frame a job is made of is mutated: the context and both call frames.
  const SmallJob job = small_job_payloads();
  test::Mutator mutator(20261019);
  int decoded = 0;
  for (int round = 0; round < 1000; ++round) {
    decoded += test::decodes([&] {
      const auto context = shard::decode_context(mutator.mutate(job.context));
      EXPECT_TRUE(test::consistent(context.uvw) &&
                  test::consistent(context.aterms) &&
                  test::consistent(context.flags))
          << "round " << round;
    });
    decoded += test::decodes([&] {
      const auto call = shard::decode_grid_call(mutator.mutate(job.grid_call));
      EXPECT_TRUE(test::consistent(call.visibilities)) << "round " << round;
    });
    decoded += test::decodes([&] {
      const auto call =
          shard::decode_degrid_call(mutator.mutate(job.degrid_call));
      EXPECT_TRUE(test::consistent(call.grid)) << "round " << round;
    });
  }
  // Both outcomes occur, or the mutations reach nothing.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 3000);
}

// --- 2. shard planner --------------------------------------------------------

TEST(PlannerTest, ShardsPartitionEveryGroupContiguously) {
  const auto s = Setup::make();
  const std::size_t nr_groups = s.plan.nr_work_groups();
  ASSERT_GT(nr_groups, 4u);
  for (const std::size_t n : {1u, 2u, 3u, 5u}) {
    const auto shards = shard::plan_shards(s.plan, n);
    ASSERT_EQ(shards.size(), std::min<std::size_t>(n, nr_groups));
    std::size_t expect_begin = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_EQ(shards[i].id, i);
      EXPECT_EQ(shards[i].group_begin, expect_begin);
      EXPECT_GT(shards[i].group_end, shards[i].group_begin);
      expect_begin = shards[i].group_end;
    }
    EXPECT_EQ(expect_begin, nr_groups);
  }
}

TEST(PlannerTest, MoreShardsThanGroupsCollapsesToOnePerGroup) {
  const auto s = Setup::make();
  const auto shards = shard::plan_shards(s.plan, s.plan.nr_work_groups() + 50);
  ASSERT_EQ(shards.size(), s.plan.nr_work_groups());
  for (const auto& sh : shards) EXPECT_EQ(sh.nr_groups(), 1u);
}

TEST(PlannerTest, PlanningIsDeterministic) {
  const auto s = Setup::make();
  const auto a = shard::plan_shards(s.plan, 4);
  const auto b = shard::plan_shards(s.plan, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_begin, b[i].group_begin);
    EXPECT_EQ(a[i].group_end, b[i].group_end);
  }
}

// --- 3. bit-identity across worker counts ------------------------------------

// Each parity test runs a plain plan and a 4-plane w-stacked plan.
constexpr int kPlaneCounts[] = {1, 4};

TEST(ShardedParityTest, GridIsBitIdenticalForEveryWorkerCount) {
  for (const int planes : kPlaneCounts) {
    const auto s = Setup::make(BadSamplePolicy::kZeroAndContinue, planes);
    const Processor reference(s.params);
    const auto expected = s.grid_with(reference);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      shard::ShardedBackend sharded(s.params, config_for(workers));
      const auto got = s.grid_with(sharded);
      EXPECT_TRUE(bit_identical(expected, got))
          << "grid diverged with " << workers << " worker(s), " << planes
          << " plane(s)";
      EXPECT_EQ(sharded.report().counters.workers_respawned, 0u);
      EXPECT_EQ(sharded.report().groups_quarantined, 0u);
    }
  }
}

TEST(ShardedParityTest, DegridIsBitIdenticalForEveryWorkerCount) {
  for (const int planes : kPlaneCounts) {
    const auto s = Setup::make(BadSamplePolicy::kZeroAndContinue, planes);
    const Processor reference(s.params);
    const auto grid = s.grid_with(reference);
    const auto expected = s.degrid_with(reference, grid);
    for (const std::size_t workers : {1u, 2u, 4u}) {
      shard::ShardedBackend sharded(s.params, config_for(workers));
      const auto got = s.degrid_with(sharded, grid);
      EXPECT_TRUE(bit_identical(expected, got))
          << "degrid diverged with " << workers << " worker(s), " << planes
          << " plane(s)";
    }
  }
}

TEST(ShardedParityTest, WPlaneWithoutGridIsRejectedBeforeAnyWorkerStarts) {
  const auto s = Setup::make(BadSamplePolicy::kZeroAndContinue, 4);
  Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                       s.params.grid_size);
  Array3D<Visibility> vis(s.ds.visibilities.dim(0), s.ds.visibilities.dim(1),
                          s.ds.visibilities.dim(2));
  shard::ShardedBackend sharded(s.params, config_for(2));
  EXPECT_THROW(sharded.grid(s.plan, s.ds.uvw.cview(),
                            s.ds.visibilities.cview(), s.aterms.cview(),
                            grid.view(), obs::null_sink()),
               Error);
  EXPECT_THROW(sharded.degrid(s.plan, s.ds.uvw.cview(), grid.cview(),
                              s.aterms.cview(), vis.view(), obs::null_sink()),
               Error);
  EXPECT_EQ(sharded.report().counters.workers_spawned, 0u);
}

TEST(ShardedParityTest, KernelSetOfTheWrongPrecisionIsRejectedByName) {
  // The workers would run float math under a double-accumulation tier:
  // the coordinator refuses the configuration before spawning any.
  auto s = Setup::make();
  s.params.accumulation = Accumulation::kDouble;
  shard::ShardConfig sc = config_for(2);
  sc.kernel_set = kernels::optimized_kernels().name();
  try {
    shard::ShardedBackend sharded(s.params, sc);
    FAIL() << "expected the precision mismatch to be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("kernel set 'optimized' does not "
                                         "implement double-precision"),
              std::string::npos)
        << e.what();
  }
  sc.kernel_set = "reference";
  EXPECT_NO_THROW(shard::ShardedBackend(s.params, sc));
}

TEST(ShardedParityTest, StandaloneWorkerBinaryRunsRegisteredKernelSets) {
  // Workers of the standalone idg-shard-worker binary resolve every
  // registered set, not just "reference".
  const auto s = Setup::make();
  shard::ShardConfig own = config_for(2);
  own.kernel_set = "optimized";
  shard::ShardConfig standalone = own;
  standalone.worker_path = IDG_SHARD_WORKER_PATH;
  shard::ShardedBackend self_exec(s.params, own);
  shard::ShardedBackend dedicated(s.params, standalone);
  const auto expected = s.grid_with(self_exec);
  const auto got = s.grid_with(dedicated);
  EXPECT_TRUE(bit_identical(expected, got));
  EXPECT_EQ(dedicated.report().counters.workers_respawned, 0u);
  EXPECT_EQ(dedicated.report().groups_quarantined, 0u);
}

TEST(ShardedParityTest, CallerSkipMaskMatchesSingleProcessSemantics) {
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 2u);
  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[1] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;

  const Processor reference(s.params);
  const auto expected = s.grid_with(reference, obs::null_sink(), ctl);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto got = s.grid_with(sharded, obs::null_sink(), ctl);
  EXPECT_TRUE(bit_identical(expected, got));
}

TEST(ShardedParityTest, ScrubMetricsMatchTheSingleProcessRun) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  obs::AggregateSink single, sharded_sink;
  const auto expected = s.grid_with(reference, single);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto got = s.grid_with(sharded, sharded_sink);
  ASSERT_TRUE(bit_identical(expected, got));

  const auto a = single.snapshot();
  const auto b = sharded_sink.snapshot();
  const auto scrub_a = a.find("scrub");
  const auto scrub_b = b.find("scrub");
  ASSERT_NE(scrub_a, a.end());
  ASSERT_NE(scrub_b, b.end());
  EXPECT_EQ(scrub_a->second.scrubbed_samples, scrub_b->second.scrubbed_samples);
  EXPECT_EQ(scrub_a->second.skipped_samples, scrub_b->second.skipped_samples);
  // The coordinator mirrors the analytic op counters of the in-process run.
  EXPECT_EQ(a.at("gridder").ops.ops(), b.at("gridder").ops.ops());
  EXPECT_EQ(a.at("adder").ops.ops(), b.at("adder").ops.ops());
  // Its in-order merge runs the adder once per group, as the in-process
  // grid loop does, and moves the same bytes.
  EXPECT_EQ(a.at("adder").invocations, b.at("adder").invocations);
  EXPECT_EQ(a.at("adder").moved_bytes, b.at("adder").moved_bytes);
  EXPECT_GT(b.at("adder").invocations, 0u);
  // And reports its own stage with the counter block.
  ASSERT_NE(b.find("shard"), b.end());
  EXPECT_EQ(b.at("shard").shard.workers_spawned, 2u);
  EXPECT_GE(b.at("shard").shard.shards_dispatched, 1u);
}

TEST(ShardedParityTest, RejectedSampleRaisesTheNamedErrorWithoutRespawns) {
  // Under bad_sample_policy=reject the coordinator scrubs before it ships
  // the call, so a bad sample raises the synchronous executor's error by
  // name instead of making every worker exit and respawn.
  auto s = Setup::make(BadSamplePolicy::kReject);
  const WorkItem& item = s.plan.items().front();
  const auto b = static_cast<std::size_t>(item.baseline);
  const auto t = static_cast<std::size_t>(item.time_begin);
  const auto c = static_cast<std::size_t>(item.channel_begin);
  const Processor reference(s.params);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto message_of = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  const auto expect_same_error = [&](const auto& call_on) {
    const std::string expected = message_of([&] { call_on(reference); });
    ASSERT_NE(expected.find("bad_sample_policy=reject"), std::string::npos)
        << expected;
    EXPECT_EQ(message_of([&] { call_on(sharded); }), expected);
  };
  const auto grid_on = [&](const GridderBackend& backend) {
    s.grid_with(backend);
  };
  const Array3D<cfloat> grid(s.planes * kNrPolarizations, s.params.grid_size,
                             s.params.grid_size);
  const auto degrid_on = [&](const GridderBackend& backend) {
    s.degrid_with(backend, grid);
  };

  // One flagged planned sample, for both directions.
  const auto& vis = s.ds.visibilities;
  s.ds.flags = Array3D<std::uint8_t>(vis.dim(0), vis.dim(1), vis.dim(2));
  s.ds.flags(b, t, c) = 1;
  expect_same_error(grid_on);
  expect_same_error(degrid_on);

  // One NaN sample and no mask.
  s.ds.flags = Array3D<std::uint8_t>();
  const Visibility good = s.ds.visibilities(b, t, c);
  s.ds.visibilities(b, t, c).xx = cfloat(std::nanf(""), 0.0f);
  expect_same_error(grid_on);
  EXPECT_EQ(sharded.report().counters.workers_respawned, 0u);

  // The backend still grids clean data bit-identically.
  s.ds.visibilities(b, t, c) = good;
  EXPECT_TRUE(bit_identical(s.grid_with(reference), s.grid_with(sharded)));
  EXPECT_EQ(sharded.report().counters.workers_respawned, 0u);
}

// --- 4. failure model --------------------------------------------------------

TEST(ShardFailureTest, DeterministicWorkerKillRebalancesBitIdentically) {
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);

  const std::string marker = temp_path("shard_die_grid");
  std::remove(marker.c_str());
  EnvGuard die("IDG_SHARD_TEST_DIE", "2:" + marker);
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got))
      << "grid diverged after a mid-shard SIGKILL";
  const auto report = sharded.report();
  EXPECT_GE(report.counters.workers_respawned, 1u);
  EXPECT_GE(report.counters.shards_rebalanced, 1u);
  EXPECT_EQ(report.groups_quarantined, 0u);
  // The kill really happened, exactly once.
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
  std::remove(marker.c_str());
}

TEST(ShardFailureTest, DeterministicWorkerKillDuringDegridToo) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto grid = s.grid_with(reference);
  const auto expected = s.degrid_with(reference, grid);

  const std::string marker = temp_path("shard_die_degrid");
  std::remove(marker.c_str());
  EnvGuard die("IDG_SHARD_TEST_DIE", "1:" + marker);
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.degrid_with(sharded, grid);
  EXPECT_TRUE(bit_identical(expected, got));
  EXPECT_GE(sharded.report().counters.workers_respawned, 1u);
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
  std::remove(marker.c_str());
}

TEST(ShardFailureTest, PoisonGroupQuarantinesItsShardLikeASkipMask) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  // Persistent fault in group 2, workers only. One group per shard, so the
  // quarantine drops exactly group 2 — the same partial result as a caller
  // skip mask over group 2.
  EnvGuard fault("IDG_FAULT_WORKER", "processor.grid.kernel@2=throw");
  shard::ShardConfig sc = config_for(2, s.plan.nr_work_groups());
  sc.worker_retries = 1;
  sc.max_attempts_per_shard = 2;
  shard::ShardedBackend sharded(s.params, sc);
  const auto got = s.grid_with(sharded);

  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[2] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference, obs::null_sink(), ctl);
  EXPECT_TRUE(bit_identical(expected, got));

  const auto report = sharded.report();
  EXPECT_EQ(report.groups_quarantined, 1u);
  EXPECT_EQ(report.counters.shards_quarantined, 1u);
  ASSERT_EQ(report.quarantined_shards.size(), 1u);
  EXPECT_EQ(report.quarantined_shards.front(), 2u);
}

TEST(ShardFailureTest, PoisonDegridGroupQuarantinesItsShardLikeASkipMask) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  const Processor reference(s.params);
  const auto grid = s.grid_with(reference);
  // The degrid twin of the case above: group 2's degridder fails in every
  // worker attempt, so the in-worker retry gives up and its one-group
  // shard is quarantined after two attempts.
  EnvGuard fault("IDG_FAULT_WORKER", "processor.degrid.kernel@2=throw");
  shard::ShardConfig sc = config_for(2, s.plan.nr_work_groups());
  sc.worker_retries = 1;
  sc.max_attempts_per_shard = 2;
  shard::ShardedBackend sharded(s.params, sc);
  const auto got = s.degrid_with(sharded, grid);

  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[2] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;
  const auto expected = s.degrid_with(reference, grid, obs::null_sink(), ctl);
  EXPECT_TRUE(bit_identical(expected, got));

  const auto report = sharded.report();
  EXPECT_EQ(report.groups_quarantined, 1u);
  EXPECT_EQ(report.counters.shards_quarantined, 1u);
}

TEST(ShardFailureTest, CoordinatorSideProtocolFaultsTakeTheRecoveryPath) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  // The coordinator's first frame read throws (injected wire fault): that
  // worker is treated as dead, killed, and its work rebalanced. Workers
  // re-arm from IDG_FAULT_WORKER (unset here), so they stay clean.
  fault::Injector::instance().arm_from_spec("shard.protocol.read=throw:1");
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got));
  EXPECT_GE(sharded.report().counters.workers_respawned, 1u);
}

TEST(ShardFailureTest, InjectedWriteFaultsAreSurvivedToo) {
  SKIP_WITHOUT_INJECTION();
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  fault::Injector::instance().arm_from_spec("shard.protocol.write=throw:1");
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  const auto got = s.grid_with(sharded);
  EXPECT_TRUE(bit_identical(expected, got));
}

TEST(ShardFailureTest, WorkerFaultReArmingIsPidIndependent) {
  SKIP_WITHOUT_INJECTION();
  // rearm_for_worker() REPLACES inherited arms with IDG_FAULT_WORKER and
  // resets fire counts — what a freshly exec'd worker runs first thing.
  auto& injector = fault::Injector::instance();
  injector.arm_from_spec("coordinator.only.site=throw");
  EnvGuard env("IDG_FAULT_WORKER", "shard.protocol.write=throw:1");
  injector.rearm_for_worker();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // The replacement arm fires (as WireError), the inherited one is gone.
  EXPECT_THROW(shard::write_frame(sv[0], shard::MsgType::kHello, "x"),
               shard::WireError);
  EXPECT_NO_THROW(shard::write_frame(sv[0], shard::MsgType::kHello, "x"));
  EXPECT_EQ(injector.fired("coordinator.only.site"), 0u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// --- 5. cancellation and drain -----------------------------------------------

TEST(ShardCancelTest, ExpiredDeadlineCancelsAndNeverCompletesAShard) {
  auto s = Setup::make();
  s.params.deadline_ms = 1;  // expired long before any shard can finish
  shard::ShardedBackend sharded(s.params, config_for(2));
  EXPECT_THROW((void)s.grid_with(sharded), CancelledError);
  // A cancelled run must never report work as complete.
  EXPECT_EQ(sharded.report().shards_completed, 0u);
  EXPECT_EQ(sharded.report().groups_quarantined, 0u);
}

TEST(ShardCancelTest, RequestedDrainAbortsBeforeAnyWork) {
  const auto s = Setup::make();
  shard::ShardedBackend sharded(s.params, config_for(2));
  shard::reset_drain();
  shard::request_drain();
  EXPECT_TRUE(shard::drain_requested());
  EXPECT_THROW((void)s.grid_with(sharded), CancelledError);
  EXPECT_EQ(sharded.report().shards_completed, 0u);
  // reset_drain() rearms: the same backend then runs to completion.
  shard::reset_drain();
  EXPECT_FALSE(shard::drain_requested());
  const Processor reference(s.params);
  EXPECT_TRUE(bit_identical(s.grid_with(reference), s.grid_with(sharded)));
}

TEST(ShardCancelTest, SigtermDrainsBothBackendsWithinDeadline) {
  const auto s = Setup::make();
  shard::install_sigterm_drain();
  shard::reset_drain();
  ASSERT_EQ(::raise(SIGTERM), 0);  // handler: flag + drain-token cancel
  ASSERT_TRUE(shard::drain_requested());
  RunControl ctl;
  ctl.cancel = &shard::drain_token();
  for (const char* name : {"synchronous", "pipelined"}) {
    const auto backend = make_backend(name, s.params);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW((void)s.grid_with(*backend, obs::null_sink(), ctl),
                 CancelledError)
        << name;
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(10)) << name;
  }
  shard::reset_drain();
}

// --- 6. a pool that serves many calls ----------------------------------------

/// True once `pid` is neither running nor a zombie: its parent reaped it.
bool reaped(int pid) { return ::kill(pid, 0) == -1 && errno == ESRCH; }

TEST(ShardPoolTest, FiveCallsSpawnEachWorkerOnce) {
  // grid, grid, degrid, grid, degrid on one 2-worker backend: the pool is
  // spawned by the first call and serves the other four.
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected_grid = s.grid_with(reference);
  const auto expected_vis = s.degrid_with(reference, expected_grid);
  shard::ShardedBackend sharded(s.params, config_for(2));
  for (const char* call : {"grid", "grid", "degrid", "grid", "degrid"}) {
    if (std::string(call) == "grid") {
      EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded))) << call;
    } else {
      EXPECT_TRUE(
          bit_identical(expected_vis, s.degrid_with(sharded, expected_grid)))
          << call;
    }
  }
  const auto report = sharded.report();
  EXPECT_EQ(report.counters.workers_spawned, 2u);
  EXPECT_EQ(report.counters.workers_respawned, 0u);
  EXPECT_EQ(sharded.worker_pids().size(), 2u);
}

TEST(ShardPoolTest, WorkerKilledBetweenCallsIsReplacedBitIdentically) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  shard::ShardedBackend sharded(s.params, config_for(2));
  ASSERT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  const std::vector<int> before = sharded.worker_pids();
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(::kill(before[0], SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  const auto report = sharded.report();
  EXPECT_EQ(report.counters.workers_spawned, 2u);
  EXPECT_EQ(report.counters.workers_respawned, 1u);
  const std::vector<int> after = sharded.worker_pids();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_NE(after[0], before[0]);  // replaced in its slot
  EXPECT_EQ(after[1], before[1]);  // the survivor served both calls
  EXPECT_TRUE(reaped(before[0]));

  // A death noticed while the worker has no shard (a one-group call keeps
  // slot 1 idle) empties its slot; the next call that wants two workers
  // refills it.
  ASSERT_EQ(::kill(after[1], SIGKILL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto one = Setup::make();
  const auto group = s.plan.work_group(0);
  std::size_t nr_vis = 0;
  for (const WorkItem& item : group) nr_vis += item.nr_visibilities();
  one.plan = Plan::from_parts(
      s.params, std::vector<WorkItem>(group.begin(), group.end()),
      std::vector<float>(s.plan.wavenumbers().begin(),
                         s.plan.wavenumbers().end()),
      nr_vis, 0);
  EXPECT_TRUE(bit_identical(one.grid_with(reference), one.grid_with(sharded)));
  EXPECT_EQ(sharded.worker_pids().size(), 1u);
  EXPECT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  EXPECT_EQ(sharded.report().counters.workers_respawned, 2u);
  EXPECT_EQ(sharded.worker_pids().size(), 2u);
  EXPECT_TRUE(reaped(after[1]));
}

TEST(ShardPoolTest, WorkerKilledMidShardInItsSecondCallIsReplaced) {
  // "2@2": the first worker to reach group 2 in its own second call dies.
  // Both workers serve the first call, so the one that dies has served an
  // earlier call and holds its context.
  const auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 3u);
  const Processor reference(s.params);
  const auto expected_grid = s.grid_with(reference);
  const auto expected_vis = s.degrid_with(reference, expected_grid);

  const std::string marker = temp_path("shard_die_second_call");
  std::remove(marker.c_str());
  EnvGuard die("IDG_SHARD_TEST_DIE", "2@2:" + marker);
  shard::ShardedBackend sharded(s.params, config_for(2, 4));
  EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded)));
  EXPECT_NE(::access(marker.c_str(), F_OK), 0) << "died in its first call";
  EXPECT_EQ(sharded.report().counters.workers_respawned, 0u);

  EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded)))
      << "grid diverged after a mid-shard SIGKILL in a later call";
  EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
  EXPECT_TRUE(
      bit_identical(expected_vis, s.degrid_with(sharded, expected_grid)));
  const auto report = sharded.report();
  EXPECT_EQ(report.counters.workers_spawned, 2u);
  EXPECT_EQ(report.counters.workers_respawned, 1u);
  EXPECT_GE(report.counters.shards_rebalanced, 1u);
  EXPECT_EQ(report.groups_quarantined, 0u);
  std::remove(marker.c_str());
}

TEST(ShardPoolTest, ChangedUvwOrATermBetweenCallsReachesTheWorkers) {
  // One uvw sample, then one A-term pixel, changes between calls. The
  // workers hold the old context, so the coordinator must notice the change
  // and ship the new one: each call gives the Processor's bytes for its
  // own inputs, which differ from the previous call's.
  auto s = Setup::make();
  const Processor reference(s.params);
  shard::ShardedBackend sharded(s.params, config_for(2));
  const auto first = s.grid_with(reference);
  ASSERT_TRUE(bit_identical(first, s.grid_with(sharded)));

  const WorkItem& item = s.plan.items().front();
  s.ds.uvw(static_cast<std::size_t>(item.baseline),
           static_cast<std::size_t>(item.time_begin))
      .u += 0.5f;
  const auto moved = s.grid_with(reference);
  ASSERT_FALSE(bit_identical(first, moved)) << "the change must show";
  EXPECT_TRUE(bit_identical(moved, s.grid_with(sharded)))
      << "workers gridded a stale uvw";

  const auto vis_before = s.degrid_with(reference, moved);
  ASSERT_TRUE(bit_identical(vis_before, s.degrid_with(sharded, moved)));
  s.aterms(0, static_cast<std::size_t>(item.station1), 3, 5).xx *= 1.5f;
  const auto vis_after = s.degrid_with(reference, moved);
  ASSERT_FALSE(bit_identical(vis_before, vis_after)) << "the change must show";
  EXPECT_TRUE(bit_identical(vis_after, s.degrid_with(sharded, moved)))
      << "workers degridded with a stale A-term";
  EXPECT_EQ(sharded.report().counters.workers_spawned, 2u);
}

TEST(ShardPoolTest, ReRunStillInFlightNeverReachesTheNextCall) {
  // Two shards; the first worker to reach the last group of shard 0 dies
  // after delivering the groups before it, so shard 0 re-runs on a
  // replacement that delivers those groups again. When the call's last
  // group lands, a worker may still be re-running or about to report its
  // shard done. The call must wait for it (or kill it): whatever it sends
  // belongs to this call, and the later calls must see none of it.
  const auto s = Setup::make();
  const std::vector<shard::ShardRange> shards = shard::plan_shards(s.plan, 2);
  ASSERT_EQ(shards.size(), 2u);
  ASSERT_GT(shards[0].nr_groups(), 1u);
  const Processor reference(s.params);
  const auto expected_grid = s.grid_with(reference);
  const auto expected_vis = s.degrid_with(reference, expected_grid);

  const auto check_later_calls = [&](const shard::ShardedBackend& sharded) {
    const auto before = sharded.report();
    EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded)));
    EXPECT_TRUE(
        bit_identical(expected_vis, s.degrid_with(sharded, expected_grid)));
    const auto after = sharded.report();
    // Two clean calls: two shards dispatched and completed each, no
    // worker replaced and nothing rebalanced.
    EXPECT_EQ(after.counters.shards_dispatched -
                  before.counters.shards_dispatched,
              4u);
    EXPECT_EQ(after.shards_completed - before.shards_completed, 4u);
    EXPECT_EQ(after.counters.workers_respawned,
              before.counters.workers_respawned);
    EXPECT_EQ(after.counters.shards_rebalanced,
              before.counters.shards_rebalanced);
  };

  {
    const std::string marker = temp_path("shard_die_rerun");
    std::remove(marker.c_str());
    EnvGuard die("IDG_SHARD_TEST_DIE",
                 std::to_string(shards[0].group_end - 1) + ":" + marker);
    shard::ShardedBackend sharded(s.params, config_for(2, 2));
    EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded)));
    const auto report = sharded.report();
    EXPECT_EQ(report.counters.workers_respawned, 1u);
    EXPECT_EQ(report.counters.shards_rebalanced, 1u);
    // The killed attempt never completes; both shards do, the re-run
    // included, before the call returns.
    EXPECT_EQ(report.shards_completed, 2u);
    EXPECT_EQ(::access(marker.c_str(), F_OK), 0);
    check_later_calls(sharded);
    std::remove(marker.c_str());
  }

  if (fault::compiled_in()) {
    // The coordinator's first read of a shard-done frame fails, so that
    // worker counts as dead although it delivered its whole shard, most
    // likely while the other worker is still running. Its slot is refilled
    // within the call.
    DisarmGuard disarm_guard;
    fault::Injector::instance().arm_from_spec(
        "shard.protocol.read@" +
        std::to_string(static_cast<int>(shard::MsgType::kShardDone)) +
        "=throw:1");
    shard::ShardedBackend sharded(s.params, config_for(2, 2));
    EXPECT_TRUE(bit_identical(expected_grid, s.grid_with(sharded)));
    const auto report = sharded.report();
    EXPECT_EQ(report.counters.workers_respawned, 1u);
    // Nothing of the shard was left undone, so it counts as complete and
    // is not dispatched again.
    EXPECT_EQ(report.counters.shards_dispatched, 2u);
    EXPECT_EQ(report.counters.shards_rebalanced, 0u);
    check_later_calls(sharded);
  }
}

TEST(ShardPoolTest, PoolOutlivesTheThreadOfItsFirstCall) {
  // PR_SET_PDEATHSIG fires when the thread that forked a worker exits. The
  // first call runs on a thread that then ends; the pool must still serve
  // the next call, from another thread, with the same workers.
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  shard::ShardedBackend sharded(s.params, config_for(2));
  Array3D<cfloat> first;
  std::thread caller([&] { first = s.grid_with(sharded); });
  caller.join();
  EXPECT_TRUE(bit_identical(expected, first));
  const std::vector<int> pids = sharded.worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  // A parent-death signal would be on its way by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (const int pid : pids) {
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, WNOHANG), 0) << "worker " << pid
                                                    << " died with the thread";
  }

  EXPECT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  EXPECT_EQ(sharded.worker_pids(), pids);
  EXPECT_EQ(sharded.report().counters.workers_spawned, 2u);
  EXPECT_EQ(sharded.report().counters.workers_respawned, 0u);
}

TEST(ShardPoolTest, CallEndedByExceptionKillsThePoolAndTheNextRespawnsIt) {
  const auto s = Setup::make();
  const Processor reference(s.params);
  const auto expected = s.grid_with(reference);
  shard::ShardedBackend sharded(s.params, config_for(2));
  ASSERT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  const std::vector<int> pids = sharded.worker_pids();
  ASSERT_EQ(pids.size(), 2u);

  CancelToken cancelled;
  cancelled.request_cancel();
  RunControl ctl;
  ctl.cancel = &cancelled;
  EXPECT_THROW((void)s.grid_with(sharded, obs::null_sink(), ctl),
               CancelledError);
  EXPECT_TRUE(sharded.worker_pids().empty());
  for (const int pid : pids) EXPECT_TRUE(reaped(pid)) << pid;

  EXPECT_TRUE(bit_identical(expected, s.grid_with(sharded)));
  EXPECT_EQ(sharded.report().counters.workers_spawned, 4u);
}

TEST(ShardPoolTest, DestructorReapsEveryWorkerEvenAWedgedOne) {
  // One worker is stopped, so it can never read its closed channel: the
  // destructor must give up waiting on it, SIGKILL it and reap it.
  const auto s = Setup::make();
  auto sharded =
      std::make_unique<shard::ShardedBackend>(s.params, config_for(2));
  (void)s.grid_with(*sharded);
  const std::vector<int> pids = sharded->worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  ASSERT_EQ(::kill(pids[0], SIGSTOP), 0);
  const auto t0 = std::chrono::steady_clock::now();
  sharded.reset();
  const auto teardown = std::chrono::steady_clock::now() - t0;
  for (const int pid : pids) EXPECT_TRUE(reaped(pid)) << "worker " << pid;
  EXPECT_LT(teardown, std::chrono::seconds(5));
}

// --- respawn backoff --------------------------------------------------------

TEST(RespawnBackoffTest, FirstRespawnAndDisabledBaseAreFree) {
  EXPECT_EQ(shard::respawn_backoff_ms(1, 2, 200), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(5, 0, 200), 0u);
  EXPECT_EQ(shard::respawn_backoff_ms(0, 2, 200), 0u);
}

TEST(RespawnBackoffTest, GrowsExponentiallyAndStaysUnderTheCap) {
  std::uint32_t previous = 0;
  for (std::uint32_t nth = 2; nth <= 40; ++nth) {
    const std::uint32_t delay = shard::respawn_backoff_ms(nth, 2, 200);
    // min(cap, base << (n-1)) with at least half guaranteed: never more
    // than the cap, never less than half the nominal (capped) value.
    EXPECT_LE(delay, 200u) << "nth=" << nth;
    const std::uint64_t nominal =
        std::min<std::uint64_t>(200, std::uint64_t{2} << (nth - 1));
    EXPECT_GE(delay, nominal / 2) << "nth=" << nth;
    // Monotone non-decreasing until the cap region (jitter may wiggle
    // inside the cap, but the early doubling dominates it).
    if (nth <= 6) {
      EXPECT_GE(delay, previous) << "nth=" << nth;
      previous = delay;
    }
  }
}

TEST(RespawnBackoffTest, DeterministicPerOrdinalButNotLockstep) {
  // Same ordinal -> same delay (resumable, testable); different ordinals
  // inside the cap region -> jitter decorrelates them.
  for (std::uint32_t nth = 2; nth <= 12; ++nth) {
    EXPECT_EQ(shard::respawn_backoff_ms(nth, 2, 200),
              shard::respawn_backoff_ms(nth, 2, 200));
  }
  bool any_difference = false;
  for (std::uint32_t nth = 10; nth < 20; ++nth) {
    if (shard::respawn_backoff_ms(nth, 2, 200) !=
        shard::respawn_backoff_ms(nth + 1, 2, 200)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "capped delays must not be lockstep";
}

// --- EINTR hardening --------------------------------------------------------

TEST(ProtocolTest, FramingSurvivesASignalStormWithoutSaRestart) {
  // A SIGALRM storm with SA_RESTART deliberately OFF makes every blocking
  // read/write on the socketpair eligible for EINTR. The framing layer's
  // retry loops must absorb all of them: no WireError, bit-exact payloads.
  struct sigaction old_action {};
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // NO SA_RESTART: force EINTR on blocked syscalls
  ASSERT_EQ(::sigaction(SIGALRM, &action, &old_action), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 500;  // every 0.5 ms
  storm.it_value.tv_usec = 500;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, nullptr), 0);

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A payload much larger than the socket buffer forces many partial
  // writes, each interruptible; the reader thread drains concurrently.
  std::string big(8 << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131) & 0xff);
  }
  std::vector<shard::RawFrame> received;
  std::thread reader([&]() {
    while (auto frame = shard::read_frame_raw(sv[1], "test.eintr.read")) {
      received.push_back(std::move(*frame));
    }
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_NO_THROW(
        shard::write_frame_raw(sv[0], 7, big, "test.eintr.write"));
  }
  ::shutdown(sv[0], SHUT_WR);
  reader.join();

  itimerval off{};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  ::sigaction(SIGALRM, &old_action, nullptr);

  ASSERT_EQ(received.size(), 4u);
  for (const auto& frame : received) {
    EXPECT_EQ(frame.type, 7u);
    EXPECT_EQ(frame.payload, big);
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: the coordinator under test re-execs this very
  // binary (/proc/self/exe) with --idg-shard-worker as argv[1].
  if (const int rc = idg::shard::maybe_run_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
