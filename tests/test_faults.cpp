// Fault-tolerance suite (ctest label `faults`, DESIGN.md §11).
//
// Three layers are pinned here:
//   1. the error-propagation machinery (BoundedQueue close_with_error,
//      PipelineError) in isolation,
//   2. the flagged/corrupt-data policies (Parameters::bad_sample_policy)
//      end to end on both execution backends, including the bit-identity
//      guarantee of kZeroAndContinue and the exported counters,
//   3. the deterministic fault-injection harness (common/faultinject.hpp):
//      every injected failure either recovers per policy or surfaces as a
//      descriptive idg::Error within bounded time — never a hang, crash or
//      silently wrong grid. Injection cases GTEST_SKIP unless the build
//      compiled the hooks in (cmake -DIDG_FAULT_INJECTION=ON).
#include <gtest/gtest.h>
#include <omp.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "idg/backend.hpp"
#include "idg/parameters.hpp"
#include "idg/pipelined.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/scrub.hpp"
#include "obs/export.hpp"
#include "obs/sink.hpp"
#include "scoped_threads.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;
using namespace std::chrono_literals;
using idg::test::ScopedThreads;

// --- fixture ----------------------------------------------------------------

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

  Array3D<cfloat> run_grid(const std::string& backend_name,
                           obs::MetricsSink& sink = obs::null_sink()) const {
    auto backend = make_backend(backend_name, params);
    Array3D<cfloat> grid(kNrPolarizations, params.grid_size, params.grid_size);
    backend->grid(plan, ds.uvw.cview(), ds.visibilities.cview(),
                  ds.flag_view(), aterms.cview(), grid.view(), sink);
    return grid;
  }
};

bool grids_bit_identical(const Array3D<cfloat>& a, const Array3D<cfloat>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

/// The team sizes the pipelined failure paths run at: the default team
/// (one kernel stream when it spans the CPUs) and one thread (as many
/// kernel streams as the buffers allow, DESIGN.md §9).
std::vector<int> pipeline_teams() { return {omp_get_max_threads(), 1}; }

/// RAII: no injection arms leak from one test into the next.
struct DisarmGuard {
  DisarmGuard() { fault::Injector::instance().disarm_all(); }
  ~DisarmGuard() { fault::Injector::instance().disarm_all(); }
};

// --- 1. error-propagation machinery -----------------------------------------

TEST(BoundedQueueFaultsTest, CloseWithErrorUnblocksFullQueueProducer) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));  // now full
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    queue.close_with_error();
  });
  // Would deadlock forever without close_with_error waking the wait.
  EXPECT_FALSE(queue.push(2));
  closer.join();
}

TEST(BoundedQueueFaultsTest, CloseWithErrorDiscardsBacklogAndWakesConsumers) {
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.push(2);
  queue.close_with_error(
      std::make_exception_ptr(Error("stage exploded")));
  int out = 0;
  EXPECT_FALSE(queue.pop(out));  // backlog discarded, not drained
  EXPECT_TRUE(queue.closed());
  ASSERT_NE(queue.error(), nullptr);
  try {
    std::rethrow_exception(queue.error());
    FAIL();
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "stage exploded");
  }
}

TEST(BoundedQueueFaultsTest, GracefulCloseStillDrains) {
  BoundedQueue<int> queue(4);
  queue.push(1);
  queue.push(2);
  queue.close();
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out));
  EXPECT_FALSE(queue.push(3));  // refused after close
}

TEST(BoundedQueueFaultsTest, TimedWaitsReportTimeoutClosedAndOk) {
  BoundedQueue<int> queue(1);
  int out = 0;
  EXPECT_EQ(queue.pop_for(out, 10ms), QueueWaitResult::kTimeout);
  ASSERT_TRUE(queue.push(7));
  EXPECT_EQ(queue.push_for(8, 10ms), QueueWaitResult::kTimeout);  // full
  EXPECT_EQ(queue.pop_for(out, 10ms), QueueWaitResult::kOk);
  EXPECT_EQ(out, 7);
  queue.close_with_error();
  EXPECT_EQ(queue.pop_for(out, 10ms), QueueWaitResult::kClosed);
  EXPECT_EQ(queue.push_for(9, 10ms), QueueWaitResult::kClosed);
}

TEST(PipelineErrorTest, FirstFailureWinsAndRethrowsWithContext) {
  PipelineError error;
  EXPECT_FALSE(error.failed());
  error.rethrow_if_failed();  // no-op
  EXPECT_TRUE(error.set("gridder", 3,
                        std::make_exception_ptr(Error("kernel died"))));
  EXPECT_FALSE(error.set("adder", 5,
                         std::make_exception_ptr(Error("later failure"))));
  EXPECT_TRUE(error.failed());
  try {
    error.rethrow_if_failed();
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stage 'gridder'"), std::string::npos) << what;
    EXPECT_NE(what.find("work group 3"), std::string::npos) << what;
    EXPECT_NE(what.find("kernel died"), std::string::npos) << what;
    EXPECT_EQ(what.find("later failure"), std::string::npos) << what;
  }
}

TEST(PipelineErrorTest, StoredStageFailureRethrowsUnchanged) {
  // A Processor group step already names its stage and group: the kernel
  // streams' failure state must not wrap it in a second prefix.
  PipelineError error;
  const StageFailure failure(
      "stage 'degridder' failed on work group 4: kernel died", "degridder", 4);
  error.set("splitter", 2, std::make_exception_ptr(failure));
  try {
    error.rethrow_if_failed();
    FAIL() << "expected idg::StageFailure";
  } catch (const StageFailure& e) {
    EXPECT_STREQ(e.what(), failure.what());
    EXPECT_EQ(e.site(), "degridder");
    EXPECT_EQ(e.group(), 4);
  }
}

// --- 2. flagged / corrupt-data policies -------------------------------------

TEST(BadSamplePolicyTest, RejectThrowsDescriptivelyOnFlaggedSample) {
  auto s = Setup::make(BadSamplePolicy::kReject);
  sim::apply_rfi_flags(s.ds, 0.0);  // allocate the all-clear mask
  s.ds.flags(2, 5, 1) = 1;
  try {
    s.run_grid("synchronous");
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("baseline 2"), std::string::npos) << what;
    EXPECT_NE(what.find("time 5"), std::string::npos) << what;
    EXPECT_NE(what.find("channel 1"), std::string::npos) << what;
    EXPECT_NE(what.find("flagged"), std::string::npos) << what;
    EXPECT_NE(what.find("reject"), std::string::npos) << what;
  }
}

TEST(BadSamplePolicyTest, RejectThrowsOnNonFiniteSample) {
  auto s = Setup::make(BadSamplePolicy::kReject);
  s.ds.visibilities(1, 3, 0).xx =
      cfloat(std::numeric_limits<float>::quiet_NaN(), 0.0f);
  try {
    s.run_grid("synchronous");
    FAIL() << "expected idg::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(BadSamplePolicyTest, CleanDataGridsIdenticallyUnderEveryPolicy) {
  auto reference = Setup::make(BadSamplePolicy::kReject);
  const auto ref_grid = reference.run_grid("synchronous");
  for (const auto policy : {BadSamplePolicy::kZeroAndContinue,
                            BadSamplePolicy::kSkipWorkGroup}) {
    auto s = Setup::make(policy);
    EXPECT_TRUE(grids_bit_identical(s.run_grid("synchronous"), ref_grid));
  }
}

TEST(BadSamplePolicyTest, ZeroAndContinueIsBitIdenticalToPreScrubbedData) {
  // The acceptance criterion: gridding with flags + kZeroAndContinue equals
  // (bit for bit) gridding a dataset whose flagged samples were zeroed
  // beforehand, on BOTH backends.
  for (const char* backend : {"synchronous", "pipelined"}) {
    auto flagged = Setup::make(BadSamplePolicy::kZeroAndContinue);
    sim::apply_rfi_flags(flagged.ds, 0.05, 11);

    auto prescrubbed = Setup::make(BadSamplePolicy::kZeroAndContinue);
    for (std::size_t i = 0; i < flagged.ds.flags.size(); ++i) {
      if (flagged.ds.flags.data()[i] != 0) {
        prescrubbed.ds.visibilities.data()[i] = Visibility{};
      }
    }
    // No mask on the reference: it grids the pre-zeroed cube directly.
    ASSERT_EQ(prescrubbed.ds.flags.size(), 0u);

    const auto grid_flagged = flagged.run_grid(backend);
    const auto grid_reference = prescrubbed.run_grid(backend);
    EXPECT_TRUE(grids_bit_identical(grid_flagged, grid_reference))
        << "backend " << backend;
  }
}

TEST(BadSamplePolicyTest, NonFiniteSamplesAreScrubbedNotGridded) {
  auto poisoned = Setup::make(BadSamplePolicy::kZeroAndContinue);
  poisoned.ds.visibilities(0, 0, 0).xy =
      cfloat(0.0f, std::numeric_limits<float>::infinity());
  poisoned.ds.visibilities(3, 7, 2).yy =
      cfloat(std::numeric_limits<float>::quiet_NaN(), 1.0f);

  auto clean = Setup::make(BadSamplePolicy::kZeroAndContinue);
  clean.ds.visibilities(0, 0, 0) = Visibility{};
  clean.ds.visibilities(3, 7, 2) = Visibility{};

  const auto grid_poisoned = poisoned.run_grid("synchronous");
  EXPECT_TRUE(grids_bit_identical(grid_poisoned, clean.run_grid("synchronous")));
  // A grid built from NaN input would be NaN everywhere the subgrid lands.
  for (std::size_t i = 0; i < grid_poisoned.size(); ++i) {
    ASSERT_TRUE(std::isfinite(grid_poisoned.data()[i].real()));
    ASSERT_TRUE(std::isfinite(grid_poisoned.data()[i].imag()));
  }
}

TEST(BadSamplePolicyTest, SkipWorkGroupDropsGroupsAndBackendsAgree) {
  auto s = Setup::make(BadSamplePolicy::kSkipWorkGroup);
  sim::apply_rfi_flags(s.ds, 0.0);
  s.ds.flags(0, 0, 0) = 1;  // poisons every group covering this sample

  obs::AggregateSink sink;
  const auto grid_skip = s.run_grid("synchronous", sink);
  const auto snapshot = sink.snapshot();
  const auto& scrub = snapshot.at(stage::kScrub);
  EXPECT_GT(scrub.skipped_samples, 0u);
  // Fewer gridder invocations than work groups: something was dropped.
  EXPECT_LT(snapshot.at(stage::kGridder).invocations,
            s.plan.nr_work_groups());

  // Both backends must agree bit for bit on the skipped result.
  EXPECT_TRUE(grids_bit_identical(grid_skip, s.run_grid("pipelined")));

  // And the result must differ from gridding everything.
  auto all = Setup::make(BadSamplePolicy::kZeroAndContinue);
  EXPECT_FALSE(grids_bit_identical(grid_skip, all.run_grid("synchronous")));
}

TEST(BadSamplePolicyTest, ScrubCountersFlowIntoSinkAndJsonExport) {
  for (const char* backend : {"synchronous", "pipelined"}) {
    auto s = Setup::make(BadSamplePolicy::kZeroAndContinue);
    sim::apply_rfi_flags(s.ds, 0.0);
    s.ds.flags(1, 2, 3) = 1;
    s.ds.flags(4, 9, 0) = 1;
    s.ds.visibilities(2, 2, 2).xx =
        cfloat(std::numeric_limits<float>::quiet_NaN(), 0.0f);

    obs::AggregateSink sink;
    s.run_grid(backend, sink);
    const auto snapshot = sink.snapshot();
    ASSERT_TRUE(snapshot.count(stage::kScrub)) << backend;
    EXPECT_EQ(snapshot.at(stage::kScrub).scrubbed_samples, 3u) << backend;
    EXPECT_EQ(snapshot.at(stage::kScrub).skipped_samples, 0u) << backend;

    const std::string json = obs::to_json(snapshot);
    EXPECT_NE(json.find("\"scrubbed_samples\": 3"), std::string::npos)
        << backend;
    EXPECT_NE(json.find("\"schema\": \"idg-obs/v8\""), std::string::npos);
  }
}

TEST(BadSamplePolicyTest, DegridZeroAndContinueZeroesFlaggedPredictions) {
  for (const char* backend_name : {"synchronous", "pipelined"}) {
    auto s = Setup::make(BadSamplePolicy::kZeroAndContinue);
    sim::apply_rfi_flags(s.ds, 0.0);
    s.ds.flags(2, 4, 1) = 1;

    auto backend = make_backend(backend_name, s.params);
    Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                         s.params.grid_size);
    backend->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
                  s.aterms.cview(), grid.view());

    Array3D<Visibility> predicted(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                  s.ds.nr_channels());
    obs::AggregateSink sink;
    backend->degrid(s.plan, s.ds.uvw.cview(), grid.cview(), s.ds.flag_view(),
                    s.aterms.cview(), predicted.view(), sink);

    const Visibility& v = predicted(2, 4, 1);
    for (int p = 0; p < kNrPolarizations; ++p) {
      EXPECT_EQ(v[p], cfloat(0.0f, 0.0f)) << backend_name;
    }
    // The prediction as a whole must not be trivially zero.
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (predicted.data()[i].xx != cfloat(0.0f, 0.0f)) ++nonzero;
    }
    EXPECT_GT(nonzero, 0u) << backend_name;
    const auto snapshot = sink.snapshot();
    ASSERT_TRUE(snapshot.count(stage::kScrub)) << backend_name;
    EXPECT_GE(snapshot.at(stage::kScrub).scrubbed_samples, 1u) << backend_name;
  }
}

TEST(BadSamplePolicyTest, DegridRejectThrows) {
  auto s = Setup::make(BadSamplePolicy::kReject);
  sim::apply_rfi_flags(s.ds, 0.0);
  s.ds.flags(1, 1, 1) = 1;
  auto backend = make_backend("synchronous", s.params);
  Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                       s.params.grid_size);
  Array3D<Visibility> predicted(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                s.ds.nr_channels());
  EXPECT_THROW(backend->degrid(s.plan, s.ds.uvw.cview(), grid.cview(),
                               s.ds.flag_view(), s.aterms.cview(),
                               predicted.view(), obs::null_sink()),
               Error);
}

// --- 3. deterministic fault injection ---------------------------------------

#define SKIP_WITHOUT_INJECTION()                                        \
  if (!fault::compiled_in()) {                                          \
    GTEST_SKIP() << "build without -DIDG_FAULT_INJECTION=ON";           \
  }                                                                     \
  DisarmGuard disarm_guard

TEST(FaultInjectorTest, SpecParserAcceptsCatalogueAndRejectsGarbage) {
  SKIP_WITHOUT_INJECTION();
  auto& inj = fault::Injector::instance();
  EXPECT_NO_THROW(inj.arm_from_spec(
      "pipelined.grid.kernel@2=throw;pipelined.grid.fft=delay:10;"
      "processor.grid.buffer=corrupt"));
  EXPECT_TRUE(inj.enabled());
  inj.disarm_all();
  EXPECT_FALSE(inj.enabled());
  EXPECT_THROW(inj.arm_from_spec("site-without-action"), Error);
  EXPECT_THROW(inj.arm_from_spec("site=explode"), Error);
  EXPECT_THROW(inj.arm_from_spec("site=delay:notanumber"), Error);
  EXPECT_THROW(inj.arm_from_spec("=throw"), Error);
}

TEST(FaultInjectorTest, DrawsAreDeterministicAcrossRuns) {
  SKIP_WITHOUT_INJECTION();
  auto& inj = fault::Injector::instance();
  const auto count_fires = [&] {
    inj.disarm_all();
    fault::Arm arm;
    arm.site = "det.site";
    arm.action = fault::Action::kDelay;  // delay 0: observable, harmless
    arm.delay_ms = 0;
    arm.probability = 0.5;
    arm.seed = 42;
    inj.arm(arm);
    for (int i = 0; i < 64; ++i) inj.hit("det.site", i);
    return inj.fired("det.site");
  };
  const auto first = count_fires();
  EXPECT_GT(first, 0u);
  EXPECT_LT(first, 64u);  // probability 0.5 must not fire always/never
  EXPECT_EQ(count_fires(), first);
}

struct SiteCase {
  const char* backend;
  const char* site;
  const char* stage;  ///< the stage the StageFailure must name
};

class FaultSiteTest : public ::testing::TestWithParam<SiteCase> {};

TEST_P(FaultSiteTest, InjectedThrowSurfacesAsDescriptiveErrorNotHang) {
  SKIP_WITHOUT_INJECTION();
  const auto [backend, site, stage_name] = GetParam();
  fault::Arm arm;
  arm.site = site;
  arm.index = 1;  // fail mid-pipeline, with groups in flight
  fault::Injector::instance().arm(arm);

  auto s = Setup::make();
  ASSERT_GT(s.plan.nr_work_groups(), 2u);
  const bool is_degrid = std::string(site).find("degrid") != std::string::npos;
  for (const int threads : pipeline_teams()) {
    SCOPED_TRACE(std::to_string(threads) + "-thread team");
    const ScopedThreads team(threads);
    const auto start = std::chrono::steady_clock::now();
    try {
      if (is_degrid) {
        auto b = make_backend(backend, s.params);
        Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                             s.params.grid_size);
        Array3D<Visibility> predicted(
            s.ds.nr_baselines(), s.ds.nr_timesteps(), s.ds.nr_channels());
        b->degrid(s.plan, s.ds.uvw.cview(), grid.cview(), s.aterms.cview(),
                  predicted.view());
      } else {
        s.run_grid(backend);
      }
      ADD_FAILURE() << "expected idg::Error from site " << site;
    } catch (const StageFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
      EXPECT_NE(what.find(site), std::string::npos) << what;
      EXPECT_EQ(e.site(), stage_name) << what;
      EXPECT_EQ(e.group(), 1) << what;
    }
    // Bounded-time failure: a stuck queue — or an in-order adder left
    // waiting for a group whose stream failed — would block far longer
    // (the TSan / ASan CI jobs run this whole suite, so a latent deadlock
    // trips there).
    EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FaultSiteTest,
    ::testing::Values(
        SiteCase{"synchronous", "processor.grid.kernel", stage::kGridder},
        SiteCase{"synchronous", "processor.grid.fft", stage::kSubgridFft},
        SiteCase{"synchronous", "processor.grid.adder", stage::kAdder},
        SiteCase{"synchronous", "processor.degrid.splitter",
                 stage::kSplitter},
        SiteCase{"synchronous", "processor.degrid.fft", stage::kSubgridFft},
        SiteCase{"synchronous", "processor.degrid.kernel", stage::kDegridder},
        SiteCase{"pipelined", "pipelined.grid.kernel", stage::kGridder},
        SiteCase{"pipelined", "pipelined.grid.fft", stage::kSubgridFft},
        SiteCase{"pipelined", "pipelined.grid.adder", stage::kAdder},
        // The push follows the FFT in the same stream.
        SiteCase{"pipelined", "pipelined.grid.push", stage::kSubgridFft},
        SiteCase{"pipelined", "pipelined.degrid.splitter", stage::kSplitter},
        SiteCase{"pipelined", "pipelined.degrid.fft", stage::kSubgridFft},
        SiteCase{"pipelined", "pipelined.degrid.kernel", stage::kDegridder}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = info.param.site;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST(FaultInjectionTest, CorruptedBufferIsDetectedNeverSilentlyGridded) {
  SKIP_WITHOUT_INJECTION();
  for (const auto& [backend, site] :
       {std::pair{"synchronous", "processor.grid.buffer"},
        std::pair{"pipelined", "pipelined.grid.buffer"}}) {
    fault::Injector::instance().disarm_all();
    fault::Arm arm;
    arm.site = site;
    arm.index = 0;
    arm.action = fault::Action::kCorrupt;
    fault::Injector::instance().arm(arm);

    auto s = Setup::make();
    try {
      s.run_grid(backend);
      FAIL() << "corrupted subgrids reached the grid silently (" << site
             << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite subgrid data"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultInjectionTest, DelayedQueuePushRecoversBitIdentical) {
  SKIP_WITHOUT_INJECTION();
  auto reference = Setup::make();
  const auto ref_grid = reference.run_grid("pipelined");

  fault::Arm arm;
  arm.site = "pipelined.grid.push";
  arm.action = fault::Action::kDelay;
  arm.delay_ms = 50;
  fault::Injector::instance().arm(arm);

  auto delayed = Setup::make();
  const auto slow_grid = delayed.run_grid("pipelined");
  EXPECT_GT(fault::Injector::instance().fired("pipelined.grid.push"), 0u);
  EXPECT_TRUE(grids_bit_identical(slow_grid, ref_grid));
}

TEST(FaultInjectionTest, PipelinedFailureReleasesResourcesForTheNextRun) {
  SKIP_WITHOUT_INJECTION();
  // A failed run must leave no stuck threads or poisoned global state: the
  // same backend must produce a correct grid immediately afterwards, with
  // one kernel stream and with several.
  auto reference = Setup::make();
  const auto ref_grid = reference.run_grid("pipelined");

  for (const int threads : pipeline_teams()) {
    SCOPED_TRACE(std::to_string(threads) + "-thread team");
    const ScopedThreads team(threads);
    fault::Arm arm;
    arm.site = "pipelined.grid.adder";
    arm.index = 0;
    fault::Injector::instance().arm(arm);
    auto s = Setup::make();
    EXPECT_THROW(s.run_grid("pipelined"), Error);

    fault::Injector::instance().disarm_all();
    EXPECT_TRUE(grids_bit_identical(s.run_grid("pipelined"), ref_grid));
  }
}

TEST(FaultInjectionTest, DeadlineExpiringMidCallCancelsEveryStream) {
  SKIP_WITHOUT_INJECTION();
  // Group 1 stalls in its first stage while the other streams, the
  // dispatcher and (on grid) the in-order adder carry on; the deadline
  // expires mid-call. The stalled stream's next cancel poll — the grid
  // adder's for group 1, the degrid stream's before group 1's FFT — must
  // unwind every thread, including an adder that holds later groups
  // waiting for group 1.
  for (const int threads : pipeline_teams()) {
    for (const char* site :
         {"pipelined.grid.kernel", "pipelined.degrid.splitter"}) {
      SCOPED_TRACE(std::string(site) + ", " + std::to_string(threads) +
                   "-thread team");
      const ScopedThreads team(threads);
      fault::Injector::instance().disarm_all();
      fault::Injector::instance().arm_from_spec(std::string(site) +
                                                "@1=delay:2000");
      auto s = Setup::make();
      ASSERT_GT(s.plan.nr_work_groups(), 2u);
      s.params.deadline_ms = 150;
      auto backend = make_backend("pipelined", s.params);
      const auto start = std::chrono::steady_clock::now();
      if (std::string(site).find("degrid") != std::string::npos) {
        Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                             s.params.grid_size);
        Array3D<Visibility> predicted(
            s.ds.nr_baselines(), s.ds.nr_timesteps(), s.ds.nr_channels());
        EXPECT_THROW(backend->degrid(s.plan, s.ds.uvw.cview(), grid.cview(),
                                     s.aterms.cview(), predicted.view()),
                     CancelledError);
      } else {
        Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                             s.params.grid_size);
        EXPECT_THROW(
            backend->grid(s.plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
                          s.aterms.cview(), grid.view()),
            CancelledError);
      }
      EXPECT_GT(fault::Injector::instance().fired(site), 0u);
      EXPECT_LT(std::chrono::steady_clock::now() - start, 30s);
    }
  }
}

}  // namespace
