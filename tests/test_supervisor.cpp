// Resilient-supervisor suite (ctest label `faults`, DESIGN.md §12).
//
// Pins the recovery layer end to end:
//   1. the cooperative-cancellation primitives (CancelToken, the WorkerPool
//      cancel path, RunControl skip masks) in isolation,
//   2. the ResilientBackend policy: transient faults retried bit-identically
//      (work groups are pure, so a retry of a non-faulting group reproduces
//      its first attempt exactly), persistent per-group faults quarantined
//      with partial-result semantics, repeated backend failures failing over
//      pipelined → synchronous, and deadlines aborting — never retrying —
//      at every catalogued fault site,
//   3. the IDGCKPT1 checkpoint format: round-trip fidelity, named rejection
//      of truncated / corrupt / mislabelled / oversized files, and
//      resume-vs-uninterrupted bit-identity of the major-cycle loop.
// Injection cases GTEST_SKIP unless built with -DIDG_FAULT_INJECTION=ON.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clean/major_cycle.hpp"
#include "common/cancel.hpp"
#include "common/checkpoint.hpp"
#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/threadpool.hpp"
#include "idg/backend.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/supervisor.hpp"
#include "mutate.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;
using namespace std::chrono_literals;

// --- fixture (mirrors test_faults.cpp) ---------------------------------------

struct Setup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;

  static Setup make(BadSamplePolicy policy = BadSamplePolicy::kZeroAndContinue) {
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
    params.work_group_size = 4;  // several work groups in flight
    params.bad_sample_policy = policy;
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms =
        sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms)};
  }

  Array3D<cfloat> grid_with(const GridderBackend& backend,
                            obs::MetricsSink& sink = obs::null_sink(),
                            const RunControl& ctl = RunControl{}) const {
    Array3D<cfloat> grid(kNrPolarizations, params.grid_size, params.grid_size);
    backend.grid(plan, ds.uvw.cview(), ds.visibilities.cview(), ds.flag_view(),
                 aterms.cview(), grid.view(), sink, ctl);
    return grid;
  }

  Array3D<cfloat> run_grid(const std::string& backend_name,
                           obs::MetricsSink& sink = obs::null_sink()) const {
    auto backend = make_backend(backend_name, params);
    return grid_with(*backend, sink);
  }
};

bool grids_bit_identical(const Array3D<cfloat>& a, const Array3D<cfloat>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

/// RAII: no injection arms leak from one test into the next.
struct DisarmGuard {
  DisarmGuard() { fault::Injector::instance().disarm_all(); }
  ~DisarmGuard() { fault::Injector::instance().disarm_all(); }
};

#define SKIP_WITHOUT_INJECTION()                                        \
  if (!fault::compiled_in()) {                                          \
    GTEST_SKIP() << "build without -DIDG_FAULT_INJECTION=ON";           \
  }                                                                     \
  DisarmGuard disarm_guard

// --- 1. cancellation primitives ----------------------------------------------

TEST(CancelTokenTest, RequestLatchesAndCheckNamesTheSite) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check("unit.site"));
  token.request_cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.check("unit.site", 7);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit.site"), std::string::npos) << what;
    EXPECT_NE(what.find("work group 7"), std::string::npos) << what;
    EXPECT_NE(what.find("cancellation requested"), std::string::npos) << what;
  }
  EXPECT_TRUE(token.cancelled());  // latched, not consumed
}

TEST(CancelTokenTest, DeadlineTokenTripsAfterItsBudgetAndSaysSo) {
  CancelToken token(1);  // 1 ms budget
  std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(token.cancelled());
  try {
    token.check("unit.deadline");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline of 1 ms exceeded"),
              std::string::npos)
        << e.what();
  }
}

TEST(WorkerPoolCancelTest, CancelledTokenAbortsParallelForWithCancelledError) {
  WorkerPool pool(2);
  CancelToken token;
  token.request_cancel();
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(1000, [&](std::size_t) { ++ran; }, &token),
      CancelledError);
  // The check runs before each index is claimed: nothing (or at most the
  // first few racing claims) executes against a pre-cancelled token.
  EXPECT_LT(ran.load(), 1000);
  // The pool survives for the next job.
  pool.parallel_for(8, [&](std::size_t) { ++ran; });
}

TEST(RunControlTest, SkipMaskDropsGroupsIdenticallyOnBothBackends) {
  auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 2u);
  auto sync = make_backend("synchronous", s.params);
  auto piped = make_backend("pipelined", s.params);
  const auto reference = s.grid_with(*sync);

  // Skip everything: the grid stays untouched (all zeros).
  std::vector<std::uint8_t> skip_all(s.plan.nr_work_groups(), 1);
  RunControl all_ctl;
  all_ctl.skip_groups = skip_all;
  const auto skipped_all = s.grid_with(*sync, obs::null_sink(), all_ctl);
  for (std::size_t i = 0; i < skipped_all.size(); ++i) {
    ASSERT_EQ(skipped_all.data()[i], cfloat(0.0f, 0.0f));
  }

  // Skip one group: differs from the full grid, and both backends agree
  // bit for bit on the partial result.
  std::vector<std::uint8_t> skip_one(s.plan.nr_work_groups(), 0);
  skip_one[1] = 1;
  RunControl one_ctl;
  one_ctl.skip_groups = skip_one;
  const auto partial_sync = s.grid_with(*sync, obs::null_sink(), one_ctl);
  const auto partial_piped = s.grid_with(*piped, obs::null_sink(), one_ctl);
  EXPECT_FALSE(grids_bit_identical(partial_sync, reference));
  EXPECT_TRUE(grids_bit_identical(partial_sync, partial_piped));
}

TEST(BackendFactoryTest, ResilientNamesNestingAndUnknownInner) {
  auto s = Setup::make();
  EXPECT_EQ(make_backend("resilient", s.params)->name(), "resilient");
  EXPECT_EQ(make_backend("resilient:synchronous", s.params)->name(),
            "resilient");
  EXPECT_THROW(make_backend("resilient:resilient", s.params), Error);
  EXPECT_THROW(make_backend("resilient:bogus", s.params), Error);
}

TEST(FaultSpecTest, TransientThrowCountStopsFiringWhenExhausted) {
  SKIP_WITHOUT_INJECTION();
  auto& inj = fault::Injector::instance();
  inj.arm_from_spec("unit.transient=throw:2");
  int thrown = 0;
  for (int i = 0; i < 5; ++i) {
    try {
      inj.hit("unit.transient", i);
    } catch (const Error&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 2);  // fires exactly twice, then the site passes
  EXPECT_EQ(inj.fired("unit.transient"), 2u);
  EXPECT_THROW(inj.arm_from_spec("site=throw:notanumber"), Error);
}

// --- 2. supervisor policy ----------------------------------------------------

TEST(SupervisorTest, TransientFaultIsRetriedAndResultIsBitIdentical) {
  SKIP_WITHOUT_INJECTION();
  auto s = Setup::make();
  const auto reference = s.run_grid("synchronous");

  // First hit of work group 1 fails, the retry passes (pure re-execution).
  fault::Injector::instance().arm_from_spec(
      "processor.grid.kernel@1=throw:1");
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0;  // keep the suite fast
  auto resilient = make_resilient_backend(
      make_backend("synchronous", s.params), nullptr, cfg);
  obs::AggregateSink sink;
  const auto supervised = s.grid_with(*resilient, sink);

  EXPECT_TRUE(grids_bit_identical(supervised, reference));
  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  const RecoveryReport report = rb->report();
  EXPECT_GE(report.retried_work_groups, 1u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(report.backend_failovers, 0u);

  // The recovery counters flow into the v5 metrics schema.
  const auto snapshot = sink.snapshot();
  ASSERT_TRUE(snapshot.count(stage::kSupervisor));
  EXPECT_GE(snapshot.at(stage::kSupervisor).retried_work_groups, 1u);
  EXPECT_EQ(snapshot.at(stage::kSupervisor).quarantined_work_groups, 0u);
  const std::string json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"retried_work_groups\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"idg-obs/v8\""), std::string::npos);
}

TEST(SupervisorTest, PersistentFaultQuarantinesTheGroupAndRunCompletes) {
  SKIP_WITHOUT_INJECTION();
  auto s = Setup::make();

  // Group 1 fails on every attempt: after max_attempts_per_group failures
  // it is quarantined and the run completes without it.
  fault::Injector::instance().arm_from_spec("processor.grid.kernel@1=throw");
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0;
  auto resilient = make_resilient_backend(
      make_backend("synchronous", s.params), nullptr, cfg);
  obs::AggregateSink sink;
  const auto supervised = s.grid_with(*resilient, sink);

  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  const RecoveryReport report = rb->report();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].group, 1);
  EXPECT_EQ(report.quarantined[0].attempts, cfg.max_attempts_per_group);
  EXPECT_NE(report.quarantined[0].last_error.find("injected fault"),
            std::string::npos)
      << report.quarantined[0].last_error;

  // Partial-result semantics: the supervised grid equals an unsupervised
  // run with the same group masked out, and the dropped samples are
  // reported as skipped under the supervisor stage.
  std::vector<std::uint8_t> skip(s.plan.nr_work_groups(), 0);
  skip[1] = 1;
  RunControl ctl;
  ctl.skip_groups = skip;
  fault::Injector::instance().disarm_all();
  auto sync = make_backend("synchronous", s.params);
  EXPECT_TRUE(grids_bit_identical(supervised,
                                  s.grid_with(*sync, obs::null_sink(), ctl)));
  const auto snapshot = sink.snapshot();
  ASSERT_TRUE(snapshot.count(stage::kSupervisor));
  EXPECT_EQ(snapshot.at(stage::kSupervisor).quarantined_work_groups, 1u);
  EXPECT_GT(snapshot.at(stage::kSupervisor).skipped_samples, 0u);
}

TEST(SupervisorTest, RepeatedFailuresFailOverToTheSynchronousFallback) {
  SKIP_WITHOUT_INJECTION();
  auto s = Setup::make();
  const auto reference = s.run_grid("synchronous");

  // Every pipelined kernel invocation fails; the synchronous fallback has
  // different site names, so after `failover_after` failures the run
  // switches backends and completes with the full (non-partial) result.
  fault::Injector::instance().arm_from_spec("pipelined.grid.kernel=throw");
  auto resilient = make_backend("resilient", s.params);
  obs::AggregateSink sink;
  const auto supervised = s.grid_with(*resilient, sink);

  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  EXPECT_TRUE(rb->failed_over());
  const RecoveryReport report = rb->report();
  EXPECT_EQ(report.backend_failovers, 1u);
  EXPECT_TRUE(report.quarantined.empty());  // failover beat quarantine
  EXPECT_TRUE(grids_bit_identical(supervised, reference));
  const auto snapshot = sink.snapshot();
  EXPECT_EQ(snapshot.at(stage::kSupervisor).backend_failovers, 1u);
}

TEST(SupervisorTest, DeterministicContractErrorsAreNotRetried) {
  SKIP_WITHOUT_INJECTION();
  // kReject scrub failures are deterministic functions of the input — the
  // supervisor must propagate them untouched instead of burning attempts.
  auto s = Setup::make(BadSamplePolicy::kReject);
  sim::apply_rfi_flags(s.ds, 0.0);
  s.ds.flags(2, 5, 1) = 1;
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0;
  auto resilient = make_resilient_backend(
      make_backend("synchronous", s.params), nullptr, cfg);
  EXPECT_THROW(s.grid_with(*resilient), Error);
  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  EXPECT_TRUE(rb->report().clean());
}

struct SiteCase {
  const char* backend;
  const char* site;
};

class DeadlineSiteTest : public ::testing::TestWithParam<SiteCase> {};

TEST_P(DeadlineSiteTest, DeadlineAbortsInjectedStallWithCancelledError) {
  SKIP_WITHOUT_INJECTION();
  const auto [backend_name, site] = GetParam();
  // A 2 s stall at the site against a 150 ms deadline: the injected sleep
  // polls the cancel registry, so the run aborts in bounded time with a
  // CancelledError naming the deadline — at every catalogued site.
  fault::Injector::instance().arm_from_spec(std::string(site) + "=delay:2000");

  auto s = Setup::make();
  s.params.deadline_ms = 150;
  auto backend = make_backend(backend_name, s.params);
  const auto start = std::chrono::steady_clock::now();
  const bool is_degrid = std::string(site).find("degrid") != std::string::npos;
  try {
    if (is_degrid) {
      Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                           s.params.grid_size);
      Array3D<Visibility> predicted(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                    s.ds.nr_channels());
      backend->degrid(s.plan, s.ds.uvw.cview(), grid.cview(),
                      s.aterms.cview(), predicted.view());
    } else {
      s.grid_with(*backend);
    }
    FAIL() << "expected CancelledError from site " << site;
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, DeadlineSiteTest,
    ::testing::Values(
        SiteCase{"synchronous", "processor.grid.kernel"},
        SiteCase{"synchronous", "processor.grid.fft"},
        SiteCase{"synchronous", "processor.grid.adder"},
        SiteCase{"synchronous", "processor.degrid.splitter"},
        SiteCase{"synchronous", "processor.degrid.fft"},
        SiteCase{"synchronous", "processor.degrid.kernel"},
        SiteCase{"pipelined", "pipelined.grid.kernel"},
        SiteCase{"pipelined", "pipelined.grid.fft"},
        SiteCase{"pipelined", "pipelined.grid.adder"},
        SiteCase{"pipelined", "pipelined.grid.push"},
        SiteCase{"pipelined", "pipelined.degrid.splitter"},
        SiteCase{"pipelined", "pipelined.degrid.fft"},
        SiteCase{"pipelined", "pipelined.degrid.kernel"}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = info.param.site;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(SupervisorTest, CancellationIsFinalNeverRetried) {
  SKIP_WITHOUT_INJECTION();
  auto s = Setup::make();
  fault::Injector::instance().arm_from_spec(
      "processor.grid.kernel=delay:2000");
  SupervisorConfig cfg;
  cfg.deadline_ms = 150;
  auto resilient = make_resilient_backend(
      make_backend("synchronous", s.params), nullptr, cfg);
  EXPECT_THROW(s.grid_with(*resilient), CancelledError);
  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  EXPECT_EQ(rb->report().retried_work_groups, 0u);  // cancellation != retry
}

TEST(SupervisorTest, ExhaustedAttemptBudgetGivesUpDescriptively) {
  SKIP_WITHOUT_INJECTION();
  auto s = Setup::make();
  // Unattributable persistent failure, no fallback: the supervisor must
  // give up after its bounded attempt budget, naming the last failure.
  fault::Injector::instance().arm_from_spec("processor.grid.kernel=throw");
  SupervisorConfig cfg;
  cfg.max_run_attempts = 2;
  cfg.max_attempts_per_group = 100;  // quarantine never saves this run
  cfg.backoff_base_ms = 0;
  auto resilient = make_resilient_backend(
      make_backend("synchronous", s.params), nullptr, cfg);
  try {
    s.grid_with(*resilient);
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gave up after 2 attempts"), std::string::npos)
        << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

// --- 3. checkpoint / resume --------------------------------------------------

clean::MajorCycleCheckpoint tiny_checkpoint() {
  clean::MajorCycleCheckpoint ckpt;
  ckpt.cycles_done = 2;
  ckpt.total_components = 17;
  ckpt.peak_history = {3.5f, 1.25f};
  ckpt.model_image = Array3D<cfloat>(kNrPolarizations, 2, 2);
  ckpt.residual_image = Array3D<cfloat>(kNrPolarizations, 2, 2);
  ckpt.residual_vis = Array3D<Visibility>(3, 2, 1);
  for (std::size_t i = 0; i < ckpt.model_image.size(); ++i) {
    ckpt.model_image.data()[i] = cfloat(float(i), -float(i));
    ckpt.residual_image.data()[i] = cfloat(-float(i), float(i) * 0.5f);
  }
  for (std::size_t i = 0; i < ckpt.residual_vis.size(); ++i) {
    Visibility v;
    v.xx = cfloat(float(i), 1.0f);
    v.yy = cfloat(2.0f, float(i));
    ckpt.residual_vis.data()[i] = v;
  }
  return ckpt;
}

TEST(CheckpointTest, RoundTripRestoresEveryFieldBitExactly) {
  const std::string path = testing::TempDir() + "idg_roundtrip.ckpt";
  const auto saved = tiny_checkpoint();
  clean::save_checkpoint(path, saved);
  const auto loaded = clean::load_checkpoint(path);
  EXPECT_EQ(loaded.cycles_done, saved.cycles_done);
  EXPECT_EQ(loaded.total_components, saved.total_components);
  ASSERT_EQ(loaded.peak_history.size(), saved.peak_history.size());
  EXPECT_EQ(std::memcmp(loaded.peak_history.data(), saved.peak_history.data(),
                        saved.peak_history.size() * sizeof(float)),
            0);
  ASSERT_EQ(loaded.model_image.size(), saved.model_image.size());
  EXPECT_EQ(std::memcmp(loaded.model_image.data(), saved.model_image.data(),
                        saved.model_image.size() * sizeof(cfloat)),
            0);
  EXPECT_EQ(std::memcmp(loaded.residual_image.data(),
                        saved.residual_image.data(),
                        saved.residual_image.size() * sizeof(cfloat)),
            0);
  ASSERT_EQ(loaded.residual_vis.size(), saved.residual_vis.size());
  EXPECT_EQ(std::memcmp(loaded.residual_vis.data(), saved.residual_vis.data(),
                        saved.residual_vis.size() * sizeof(Visibility)),
            0);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_load_fails_with(const std::string& path, const char* needle) {
  try {
    clean::load_checkpoint(path);
    FAIL() << "expected idg::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, RejectsMissingTruncatedCorruptAndMislabelledFiles) {
  const std::string path = testing::TempDir() + "idg_damage.ckpt";
  clean::save_checkpoint(path, tiny_checkpoint());
  const std::string good = read_file(path);
  ASSERT_GT(good.size(), 16u);

  expect_load_fails_with(testing::TempDir() + "no_such.ckpt",
                         "cannot open checkpoint file");

  // Shorter than magic + CRC: named truncation.
  write_file(path, good.substr(0, 6));
  expect_load_fails_with(path, "truncated");

  // A partial write (prefix of the real file): the trailing CRC no longer
  // matches the payload it now appears to cover.
  write_file(path, good.substr(0, good.size() / 2));
  expect_load_fails_with(path, "corrupt or partially written");

  // Single flipped payload byte: CRC rejects it.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x40;
  write_file(path, flipped);
  expect_load_fails_with(path, "corrupt or partially written");

  // Wrong magic on otherwise-valid bytes.
  std::string mislabelled = good;
  mislabelled[3] = 'X';
  write_file(path, mislabelled);
  expect_load_fails_with(path, "not a 'IDGCKPT1' checkpoint file");

  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsPayloadWithTrailingBytes) {
  // A well-formed file whose payload holds more than its header accounts
  // for: rebuilt through CheckpointWriter so the CRC is valid and only the
  // finish() trailing-bytes check can catch it.
  const std::string path = testing::TempDir() + "idg_trailing.ckpt";
  const auto ckpt = tiny_checkpoint();
  CheckpointWriter writer;
  writer.write_pod(ckpt.cycles_done);
  writer.write_pod(ckpt.total_components);
  writer.write_pod(static_cast<std::uint64_t>(ckpt.peak_history.size()));
  for (std::size_t d = 0; d < 3; ++d)
    writer.write_pod(static_cast<std::uint64_t>(ckpt.model_image.dim(d)));
  for (std::size_t d = 0; d < 3; ++d)
    writer.write_pod(static_cast<std::uint64_t>(ckpt.residual_vis.dim(d)));
  writer.write_array(ckpt.peak_history.data(), ckpt.peak_history.size());
  writer.write_array(ckpt.model_image.data(), ckpt.model_image.size());
  writer.write_array(ckpt.residual_image.data(), ckpt.residual_image.size());
  writer.write_array(ckpt.residual_vis.data(), ckpt.residual_vis.size());
  writer.write_pod(std::uint32_t{0xdeadbeef});  // the stowaway
  writer.commit(path, clean::kCheckpointMagic);
  expect_load_fails_with(path, "trailing bytes");
  std::remove(path.c_str());
}

TEST(CheckpointTest, ImageExtentsThatWrapAreRejectedByName) {
  // A CRC-valid file whose images claim 4 x 2^31 x 2^31 pixels: the product
  // wraps to 0 in 64 bits, so without an overflow check the file loads as
  // images whose storage holds no pixel at all.
  const std::string path = testing::TempDir() + "idg_wrap.ckpt";
  CheckpointWriter writer;
  writer.write_pod(std::int32_t{1});   // cycles done
  writer.write_pod(std::int32_t{0});   // total components
  writer.write_pod(std::uint64_t{0});  // peak history length
  for (const std::uint64_t d : {std::uint64_t{4}, std::uint64_t{1} << 31,
                                std::uint64_t{1} << 31})
    writer.write_pod(d);  // image dimensions
  for (int d = 0; d < 3; ++d) writer.write_pod(std::uint64_t{0});
  writer.commit(path, clean::kCheckpointMagic);
  expect_load_fails_with(path, "truncated");
  std::remove(path.c_str());
}

TEST(CheckpointTest, MutatedFilesLoadOrFailByName) {
  // Mutate the payload and write it back with a recomputed CRC, so every
  // mutation reaches the decoder instead of the CRC check.
  const std::string path = testing::TempDir() + "idg_mutated.ckpt";
  clean::save_checkpoint(path, tiny_checkpoint());
  const std::string file = read_file(path);
  constexpr std::size_t kMagic = 8;
  const std::string payload =
      file.substr(kMagic, file.size() - kMagic - sizeof(std::uint32_t));

  test::Mutator mutator(20261019);
  int loaded = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::string mutated = mutator.mutate(payload);
    const std::uint32_t crc = crc32(mutated.data(), mutated.size());
    write_file(path, file.substr(0, kMagic) + mutated +
                         std::string(reinterpret_cast<const char*>(&crc),
                                     sizeof(crc)));
    loaded += test::decodes([&] {
      const auto ckpt = clean::load_checkpoint(path);
      EXPECT_TRUE(test::consistent(ckpt.model_image) &&
                  test::consistent(ckpt.residual_image) &&
                  test::consistent(ckpt.residual_vis))
          << "round " << round;
    });
  }
  // Both outcomes occur, or the mutations reach nothing.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 1000);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicCommitLeavesNoTempFileBehind) {
  const std::string path = testing::TempDir() + "idg_atomic.ckpt";
  clean::save_checkpoint(path, tiny_checkpoint());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // renamed over the target, not left behind
  EXPECT_NO_THROW(clean::load_checkpoint(path));
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveSweepsStaleTempFilesOfKilledWriters) {
  const std::string path = testing::TempDir() + "idg_sweep.ckpt";
  // Orphans a killed writer would leave behind: the legacy un-suffixed
  // name and a pid-suffixed temp of a process that no longer exists.
  const std::string legacy = path + ".tmp";
  const std::string orphan = path + ".tmp.99999999";
  std::ofstream(legacy, std::ios::binary) << "half-written";
  std::ofstream(orphan, std::ios::binary) << "half-written";
  clean::save_checkpoint(path, tiny_checkpoint());
  EXPECT_FALSE(std::ifstream(legacy, std::ios::binary).good());
  EXPECT_FALSE(std::ifstream(orphan, std::ios::binary).good());
  EXPECT_NO_THROW(clean::load_checkpoint(path));  // the real file survives
  std::remove(path.c_str());
}

// --- resume vs uninterrupted -------------------------------------------------

struct CleanSetup {
  Setup s;
  clean::MajorCycleConfig config;

  static CleanSetup make() {
    CleanSetup c{Setup::make(), {}};
    c.config.nr_major_cycles = 3;
    c.config.minor.max_iterations = 40;
    return c;
  }

  clean::MajorCycleResult run(const GridderBackend& backend) const {
    return clean::run_major_cycles(backend, s.plan, s.ds.uvw.cview(),
                                   s.ds.visibilities.cview(),
                                   s.aterms.cview(), config);
  }
};

TEST(CheckpointTest, ResumedRunIsBitIdenticalToUninterruptedRun) {
  auto c = CleanSetup::make();
  auto backend = make_backend("synchronous", c.s.params);
  const auto uninterrupted = c.run(*backend);

  // "Kill" the job after one cycle: run a single checkpointing cycle, then
  // resume the remaining two from the snapshot.
  const std::string path = testing::TempDir() + "idg_resume.ckpt";
  auto first = c;
  first.config.nr_major_cycles = 1;
  first.config.checkpoint_path = path;
  first.run(*backend);

  auto resumed_cfg = c;
  resumed_cfg.config.resume_path = path;
  const auto resumed = resumed_cfg.run(*backend);

  EXPECT_EQ(resumed.total_components, uninterrupted.total_components);
  ASSERT_EQ(resumed.peak_history.size(), uninterrupted.peak_history.size());
  for (std::size_t i = 0; i < resumed.peak_history.size(); ++i) {
    EXPECT_EQ(resumed.peak_history[i], uninterrupted.peak_history[i]) << i;
  }
  EXPECT_TRUE(
      grids_bit_identical(resumed.model_image, uninterrupted.model_image));
  EXPECT_TRUE(grids_bit_identical(resumed.residual_image,
                                  uninterrupted.residual_image));
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResumeRejectsMismatchedDimensionsAndOverrunCycles) {
  auto c = CleanSetup::make();
  auto backend = make_backend("synchronous", c.s.params);
  const std::string path = testing::TempDir() + "idg_mismatch.ckpt";

  // Visibility cube from a different dataset.
  clean::MajorCycleCheckpoint wrong;
  wrong.cycles_done = 1;
  wrong.model_image = Array3D<cfloat>(kNrPolarizations, c.s.params.grid_size,
                                      c.s.params.grid_size);
  wrong.residual_image = Array3D<cfloat>(
      kNrPolarizations, c.s.params.grid_size, c.s.params.grid_size);
  wrong.residual_vis = Array3D<Visibility>(1, 1, 1);
  clean::save_checkpoint(path, wrong);
  auto mismatch = c;
  mismatch.config.resume_path = path;
  try {
    mismatch.run(*backend);
    FAIL() << "expected dimension-mismatch error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not match this run"),
              std::string::npos)
        << e.what();
  }

  // More cycles done than this run asks for.
  wrong.residual_vis = Array3D<Visibility>(c.s.ds.nr_baselines(),
                                           c.s.ds.nr_timesteps(),
                                           c.s.ds.nr_channels());
  wrong.cycles_done = 5;
  clean::save_checkpoint(path, wrong);
  auto overrun = c;
  overrun.config.resume_path = path;
  try {
    overrun.run(*backend);
    FAIL() << "expected overrun-cycles error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("beyond this run's"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(SupervisorTest, MajorCyclesRunUnderTheResilientBackendWithRetries) {
  SKIP_WITHOUT_INJECTION();
  // The full imaging loop on a supervised backend: a transient kernel fault
  // during the run is retried away and the result matches the fault-free
  // loop bit for bit — recovery composes with the highest-level consumer.
  auto c = CleanSetup::make();
  c.config.nr_major_cycles = 2;
  auto plain = make_backend("synchronous", c.s.params);
  const auto reference = c.run(*plain);

  fault::Injector::instance().arm_from_spec(
      "processor.grid.kernel@0=throw:1");
  SupervisorConfig cfg;
  cfg.backoff_base_ms = 0;
  auto resilient = make_resilient_backend(
      make_backend("synchronous", c.s.params), nullptr, cfg);
  const auto supervised = c.run(*resilient);

  const auto* rb = dynamic_cast<const ResilientBackend*>(resilient.get());
  ASSERT_NE(rb, nullptr);
  EXPECT_GE(rb->report().retried_work_groups, 1u);
  EXPECT_EQ(supervised.total_components, reference.total_components);
  EXPECT_TRUE(
      grids_bit_identical(supervised.model_image, reference.model_image));
  EXPECT_TRUE(grids_bit_identical(supervised.residual_image,
                                  reference.residual_image));
}

}  // namespace
