// Tests for W-stacking (w-plane model, plan integration, stacked
// gridding/degridding) and for the triple-buffered pipelined executor.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numbers>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "idg/image.hpp"
#include "idg/pipelined.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/taper.hpp"
#include "idg/wplane.hpp"
#include "idg/wstack.hpp"
#include "obs/sink.hpp"
#include "scoped_threads.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"

namespace {

using namespace idg;
using idg::test::ScopedThreads;

// --- WPlaneModel ---------------------------------------------------------------

TEST(WPlaneModelTest, SinglePlaneIsAtZero) {
  WPlaneModel m(1, 500.0);
  EXPECT_EQ(m.plane_of(-400.0), 0);
  EXPECT_EQ(m.plane_of(400.0), 0);
  EXPECT_FLOAT_EQ(m.center(0), 0.0f);
}

TEST(WPlaneModelTest, CentersSpanSymmetricRange) {
  WPlaneModel m(5, 100.0);
  EXPECT_FLOAT_EQ(m.center(0), -100.0f);
  EXPECT_FLOAT_EQ(m.center(2), 0.0f);
  EXPECT_FLOAT_EQ(m.center(4), 100.0f);
}

TEST(WPlaneModelTest, PlaneOfPicksNearestCenter) {
  WPlaneModel m(5, 100.0);  // centers at -100, -50, 0, 50, 100
  EXPECT_EQ(m.plane_of(-80.0), 0);
  EXPECT_EQ(m.plane_of(-60.0), 1);
  EXPECT_EQ(m.plane_of(10.0), 2);
  EXPECT_EQ(m.plane_of(95.0), 4);
  EXPECT_EQ(m.plane_of(1e9), 4);   // clamped
  EXPECT_EQ(m.plane_of(-1e9), 0);  // clamped
}

TEST(WPlaneModelTest, ResidualBoundHolds) {
  WPlaneModel m(9, 400.0);
  EXPECT_DOUBLE_EQ(m.max_residual(), 50.0);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-400.0, 400.0);
  for (int i = 0; i < 1000; ++i) {
    const double w = dist(rng);
    const int p = m.plane_of(w);
    EXPECT_LE(std::abs(w - m.center(p)), m.max_residual() * 1.0001);
  }
}

TEST(WPlaneModelTest, FitCoversDataset) {
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 8;
  cfg.nr_timesteps = 16;
  auto ds = sim::make_benchmark_dataset_no_vis(cfg);
  auto m = WPlaneModel::fit(8, ds.uvw, ds.frequencies);
  EXPECT_EQ(m.nr_planes(), 8);
  const double f_max = ds.frequencies.back();
  for (const UVW& c : ds.uvw) {
    EXPECT_LE(std::abs(c.w) * f_max / kSpeedOfLight, m.w_max());
  }
}

TEST(WPlaneModelTest, InvalidArgumentsThrow) {
  EXPECT_THROW(WPlaneModel(0, 10.0), Error);
  EXPECT_THROW(WPlaneModel(4, -1.0), Error);
  WPlaneModel m(2, 10.0);
  EXPECT_THROW(m.center(2), Error);
}

// --- fixture with artificially inflated w --------------------------------------

struct WStackFixture {
  sim::Dataset ds;
  Parameters params;
  sim::ATermCube aterms;

  /// `w_scale` multiplies every w coordinate, pushing the w-term support
  /// beyond the subgrid margin so plain IDG degrades and stacking matters.
  static WStackFixture make(float w_scale) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 32;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    cfg.subgrid_size = 32;
    auto ds = sim::make_benchmark_dataset_no_vis(cfg);
    for (UVW& c : ds.uvw) c.w *= w_scale;

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 16;
    auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                            cfg.subgrid_size);
    return {std::move(ds), params, std::move(aterms)};
  }

  double degrid_error(const WPlaneModel& wplanes) const {
    const double dl = params.image_size / static_cast<double>(params.grid_size);
    sim::SkyModel sky = {
        sim::PointSource{static_cast<float>(40 * dl),
                         static_cast<float>(-35 * dl), 1.0f}};
    auto expected =
        sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs);
    auto model = sim::render_sky_image(sky, params.grid_size,
                                       params.image_size);

    WStackProcessor proc(params, wplanes);
    Plan plan = proc.make_plan(ds.uvw, ds.frequencies, ds.baselines);
    auto grids = proc.model_image_to_grids(model);
    Array3D<Visibility> predicted(ds.nr_baselines(), ds.nr_timesteps(),
                                  ds.nr_channels());
    proc.degrid_visibilities(plan, ds.uvw.cview(), grids.cview(),
                             aterms.cview(), predicted.view());
    return sim::max_abs_difference(expected, predicted) /
           sim::rms_amplitude(expected);
  }
};

// --- plan integration -------------------------------------------------------------

TEST(WStackPlanTest, ItemsCarryPlaneAssignments) {
  auto f = WStackFixture::make(1.0f);
  WPlaneModel wplanes = WPlaneModel::fit(8, f.ds.uvw, f.ds.frequencies);
  WStackProcessor proc(f.params, wplanes);
  Plan plan = proc.make_plan(f.ds.uvw, f.ds.frequencies, f.ds.baselines);

  bool any_nonzero_plane = false;
  for (const WorkItem& item : plan.items()) {
    EXPECT_GE(item.w_plane, 0);
    EXPECT_LT(item.w_plane, wplanes.nr_planes());
    EXPECT_FLOAT_EQ(item.w_offset, wplanes.center(item.w_plane));
    if (item.w_plane != 0) any_nonzero_plane = true;
  }
  EXPECT_TRUE(any_nonzero_plane);
}

TEST(WStackPlanTest, SinglePlanePlanHasZeroOffsets) {
  auto f = WStackFixture::make(1.0f);
  Plan plan(f.params, f.ds.uvw, f.ds.frequencies, f.ds.baselines);
  for (const WorkItem& item : plan.items()) {
    EXPECT_EQ(item.w_plane, 0);
    EXPECT_FLOAT_EQ(item.w_offset, 0.0f);
  }
}

// --- stacked pipelines -------------------------------------------------------------

TEST(WStackTest, SinglePlaneMatchesPlainProcessor) {
  auto f = WStackFixture::make(1.0f);
  const double dl = f.params.image_size / static_cast<double>(f.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(12 * dl),
                                        static_cast<float>(9 * dl), 1.0f}};
  auto vis = sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  // Plain processor.
  Plan plain_plan(f.params, f.ds.uvw, f.ds.frequencies, f.ds.baselines);
  Processor plain(f.params);
  Array3D<cfloat> grid(4, f.params.grid_size, f.params.grid_size);
  plain.grid_visibilities(plain_plan, f.ds.uvw.cview(), vis.cview(),
                          f.aterms.cview(), grid.view());

  // Single-plane stack: the same grid loop on the same memory layout.
  WStackProcessor stacked(f.params, WPlaneModel(1, 0.0));
  Plan stack_plan = stacked.make_plan(f.ds.uvw, f.ds.frequencies,
                                      f.ds.baselines);
  auto grids = stacked.make_grids();
  stacked.grid_visibilities(stack_plan, f.ds.uvw.cview(), vis.cview(),
                            f.aterms.cview(), grids.view());

  ASSERT_EQ(grid.size(), grids.size());
  EXPECT_EQ(std::memcmp(grid.data(), grids.data(), grid.bytes()), 0);
}

TEST(WStackTest, NonFiniteVisibilityIsZeroedLikeThePlainPath) {
  // The w-stacked grid call runs the processor's scrub: a NaN sample is
  // zeroed (the default zero_and_continue policy), so the plane stack
  // equals the stack of the same data with that sample set to zero.
  auto f = WStackFixture::make(30.0f);
  WStackProcessor proc(f.params,
                       WPlaneModel::fit(4, f.ds.uvw, f.ds.frequencies));
  Plan plan = proc.make_plan(f.ds.uvw, f.ds.frequencies, f.ds.baselines);
  const double dl = f.params.image_size / static_cast<double>(f.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(20 * dl),
                                        static_cast<float>(-15 * dl), 1.0f}};
  auto vis = sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  const WorkItem& item = plan.items().front();
  Visibility& bad = vis(static_cast<std::size_t>(item.baseline),
                        static_cast<std::size_t>(item.time_begin),
                        static_cast<std::size_t>(item.channel_begin));
  bad = Visibility{};
  auto zeroed = proc.make_grids();
  proc.grid_visibilities(plan, f.ds.uvw.cview(), vis.cview(),
                         f.aterms.cview(), zeroed.view());

  bad.xx = {std::nanf(""), 0.0f};
  auto scrubbed = proc.make_grids();
  obs::AggregateSink sink;
  proc.grid_visibilities(plan, f.ds.uvw.cview(), vis.cview(),
                         f.aterms.cview(), scrubbed.view(), sink);

  EXPECT_EQ(std::memcmp(zeroed.data(), scrubbed.data(), zeroed.bytes()), 0);
  EXPECT_EQ(sink.snapshot().at(stage::kScrub).scrubbed_samples, 1u);
}

TEST(WStackTest, StackingRescuesLargeWDegridding) {
  auto f = WStackFixture::make(60.0f);  // brutal w inflation
  const double err_plain = f.degrid_error(WPlaneModel(1, 0.0));
  const double err_stacked =
      f.degrid_error(WPlaneModel::fit(16, f.ds.uvw, f.ds.frequencies));
  // Plain IDG's subgrid can no longer contain the w-term support; stacking
  // must recover at least a 3x accuracy improvement and reach a usable
  // error level.
  EXPECT_GT(err_plain, 0.08) << "w inflation too weak for this test";
  EXPECT_LT(err_stacked, err_plain / 3.0);
  EXPECT_LT(err_stacked, 0.05);
}

TEST(WStackTest, MorePlanesMonotonicallyImproveAccuracy) {
  auto f = WStackFixture::make(60.0f);
  const double e1 = f.degrid_error(WPlaneModel::fit(2, f.ds.uvw, f.ds.frequencies));
  const double e2 = f.degrid_error(WPlaneModel::fit(8, f.ds.uvw, f.ds.frequencies));
  const double e3 = f.degrid_error(WPlaneModel::fit(24, f.ds.uvw, f.ds.frequencies));
  EXPECT_GT(e1, e2);
  EXPECT_GT(e2, e3 * 0.999);
}

TEST(WStackTest, GridRoundtripRecoversPointSource) {
  auto f = WStackFixture::make(30.0f);
  WPlaneModel wplanes = WPlaneModel::fit(12, f.ds.uvw, f.ds.frequencies);
  WStackProcessor proc(f.params, wplanes);
  Plan plan = proc.make_plan(f.ds.uvw, f.ds.frequencies, f.ds.baselines);

  const double dl = f.params.image_size / static_cast<double>(f.params.grid_size);
  const int px = 30, py = -25;
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(px * dl),
                                        static_cast<float>(py * dl), 1.5f}};
  auto vis = sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  auto grids = proc.make_grids();
  proc.grid_visibilities(plan, f.ds.uvw.cview(), vis.cview(),
                         f.aterms.cview(), grids.view());
  auto image =
      proc.make_dirty_image(grids.cview(), plan.nr_planned_visibilities());

  const std::size_t cx = f.params.grid_size / 2 + px;
  const std::size_t cy = f.params.grid_size / 2 + py;
  EXPECT_NEAR(image(0, cy, cx).real(), 1.5f, 0.08f);
}

// --- plane combination ---------------------------------------------------------------

/// Multiplies a [4][G][G] cube by exp(sign * 2*pi*i * w0 * n(l, m)),
/// computing the screen in double precision at every pixel: the per-plane
/// screen pass the fused combination replaced.
void apply_screen_per_pixel(ArrayView<cfloat, 3> cube, const Parameters& params,
                            double w0, double sign) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  const std::size_t g = params.grid_size;
  for (std::size_t y = 0; y < g; ++y) {
    const float m = params.grid_lm(y);
    for (std::size_t x = 0; x < g; ++x) {
      const float l = params.grid_lm(x);
      const double phase = sign * kTwoPi * w0 * compute_n(l, m);
      const cfloat screen(static_cast<float>(std::cos(phase)),
                          static_cast<float>(std::sin(phase)));
      for (std::size_t p = 0; p < kNrPolarizations; ++p)
        cube(p, y, x) *= screen;
    }
  }
}

/// The dirty image plane by plane: copy the plane, inverse-transform it,
/// multiply by its screen, add; then scale and taper-correct the sum.
Array3D<cfloat> per_plane_dirty_image(const WStackProcessor& proc,
                                      const Array4D<cfloat>& grids,
                                      std::uint64_t nr_visibilities) {
  const Parameters& params = proc.parameters();
  const std::size_t g = params.grid_size;
  const std::size_t cube = kNrPolarizations * g * g;
  Array3D<cfloat> accum(kNrPolarizations, g, g);
  Array3D<cfloat> work(kNrPolarizations, g, g);
  for (int p = 0; p < proc.wplanes().nr_planes(); ++p) {
    const cfloat* plane = grids.data() + static_cast<std::size_t>(p) * cube;
    std::copy(plane, plane + cube, work.begin());
    fft_grid_to_image(work.view());
    apply_screen_per_pixel(work.view(), params, proc.wplanes().center(p),
                           +1.0);
    for (std::size_t i = 0; i < accum.size(); ++i)
      accum.data()[i] += work.data()[i];
  }
  const Array2D<float> correction = make_taper_correction_for(params);
  const float scale = 1.0f / static_cast<float>(nr_visibilities);
  for (std::size_t p = 0; p < kNrPolarizations; ++p)
    for (std::size_t y = 0; y < g; ++y)
      for (std::size_t x = 0; x < g; ++x)
        accum(p, y, x) *= scale * correction(y, x);
  return accum;
}

/// The model grids plane by plane: model times correction, times the
/// conjugate screen, forward-transformed.
Array4D<cfloat> per_plane_model_grids(const WStackProcessor& proc,
                                      const Array3D<cfloat>& model) {
  const Parameters& params = proc.parameters();
  const std::size_t g = params.grid_size;
  const std::size_t cube = kNrPolarizations * g * g;
  Array4D<cfloat> grids = proc.make_grids();
  const Array2D<float> correction = make_taper_correction_for(params);
  for (int p = 0; p < proc.wplanes().nr_planes(); ++p) {
    ArrayView<cfloat, 3> plane(
        grids.data() + static_cast<std::size_t>(p) * cube,
        {kNrPolarizations, g, g});
    for (std::size_t pol = 0; pol < kNrPolarizations; ++pol)
      for (std::size_t y = 0; y < g; ++y)
        for (std::size_t x = 0; x < g; ++x)
          plane(pol, y, x) = model(pol, y, x) * correction(y, x);
    apply_screen_per_pixel(plane, params, proc.wplanes().center(p), -1.0);
    fft_image_to_grid(plane);
  }
  return grids;
}

Parameters combination_params(std::size_t grid_size) {
  Parameters params;
  params.grid_size = grid_size;
  params.subgrid_size = 16;
  params.kernel_size = 4;
  params.image_size = 0.1;
  params.nr_stations = 4;
  return params;
}

template <typename A>
void fill_random(A& a, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : a) v = {dist(rng), dist(rng)};
}

TEST(WStackCombineTest, MatchesThePerPlaneLoopByteForByte) {
  // The fused passes evaluate each screen row once, mirror it, and run the
  // transforms in shared parallel loops; the images and grids must still
  // equal the per-plane loop's to the last bit, for an even and an odd
  // grid and whatever the thread count.
  for (const std::size_t g : {std::size_t{64}, std::size_t{75}}) {
    for (const int planes : {1, 3, 8}) {
      WStackProcessor proc(combination_params(g), WPlaneModel(planes, 2000.0));
      Array4D<cfloat> grids = proc.make_grids();
      fill_random(grids, static_cast<unsigned>(g) + planes);
      Array3D<cfloat> model(kNrPolarizations, g, g);
      fill_random(model, static_cast<unsigned>(g) * planes);
      const std::uint64_t nr_vis = 1000;
      const Array3D<cfloat> dirty_ref =
          per_plane_dirty_image(proc, grids, nr_vis);
      const Array4D<cfloat> model_ref = per_plane_model_grids(proc, model);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("grid " + std::to_string(g) + ", " +
                     std::to_string(planes) + " plane(s), " +
                     std::to_string(threads) + " thread(s)");
        const ScopedThreads team(threads);
        const Array3D<cfloat> dirty =
            proc.make_dirty_image(grids.cview(), nr_vis);
        ASSERT_EQ(dirty.size(), dirty_ref.size());
        EXPECT_EQ(std::memcmp(dirty.data(), dirty_ref.data(), dirty.bytes()),
                  0);
        const Array4D<cfloat> model_grids = proc.model_image_to_grids(model);
        ASSERT_EQ(model_grids.size(), model_ref.size());
        EXPECT_EQ(std::memcmp(model_grids.data(), model_ref.data(),
                              model_grids.bytes()),
                  0);
      }
    }
  }
}

TEST(WStackCombineTest, RepeatedCallsOnAnyTeamMatchThePerPlaneLoop) {
  // The screens and the correction are built once, by the constructor's
  // team: a second call must see the same tables, and teams of 2 and 3
  // threads (fewer than the four polarisations), or of a size other than
  // the constructor's, must give the same bits.
  const WPlaneModel wplanes(5, 2000.0);
  for (const std::size_t g : {std::size_t{64}, std::size_t{75}}) {
    const WStackProcessor reference(combination_params(g), wplanes);
    Array4D<cfloat> grids = reference.make_grids();
    fill_random(grids, static_cast<unsigned>(g) + 7);
    Array3D<cfloat> model(kNrPolarizations, g, g);
    fill_random(model, static_cast<unsigned>(g) + 11);
    const std::uint64_t nr_vis = 777;
    const Array3D<cfloat> dirty_ref =
        per_plane_dirty_image(reference, grids, nr_vis);
    const Array4D<cfloat> model_ref = per_plane_model_grids(reference, model);
    for (const int built_on : {1, 3}) {
      const auto proc = [&] {
        const ScopedThreads team(built_on);
        return WStackProcessor(combination_params(g), wplanes);
      }();
      for (const int threads : {2, 3, 4}) {
        const ScopedThreads team(threads);
        for (int call = 0; call < 2; ++call) {
          SCOPED_TRACE("grid " + std::to_string(g) + ", built on " +
                       std::to_string(built_on) + ", " +
                       std::to_string(threads) + " thread(s), call " +
                       std::to_string(call));
          const Array3D<cfloat> dirty =
              proc.make_dirty_image(grids.cview(), nr_vis);
          EXPECT_EQ(
              std::memcmp(dirty.data(), dirty_ref.data(), dirty.bytes()), 0);
          const Array4D<cfloat> model_grids =
              proc.model_image_to_grids(model);
          EXPECT_EQ(std::memcmp(model_grids.data(), model_ref.data(),
                                model_grids.bytes()),
                    0);
        }
      }
    }
  }
}

TEST(WStackCombineTest, MakeGridsIsZeroEvenOnReusedMemory) {
  // make_grids zeroes its stack itself, so memory the allocator hands back
  // from an earlier, filled stack of the same size must come out zero.
  const ScopedThreads team(3);
  WStackProcessor proc(combination_params(64), WPlaneModel(8, 2000.0));
  for (int i = 0; i < 4; ++i) {
    Array4D<cfloat> grids = proc.make_grids();
    EXPECT_TRUE(std::all_of(grids.begin(), grids.end(),
                            [](const cfloat& v) { return v == cfloat{}; }))
        << "stack " << i;
    std::fill(grids.begin(), grids.end(), cfloat(1.0f, -1.0f));
    // The stack is freed next; keep the fill that the next one may reuse.
    asm volatile("" : : "r"(grids.data()) : "memory");
  }
}

TEST(ImageTransformTest, OnePlaneTransformsMatchAReferenceLoopByteForByte) {
  // The one-plane transforms are the no-screen case of the plane tasks; per
  // polarisation they must still be a copy, a centred FFT and scale x
  // correction (dirty image), or correction then the FFT (model grid).
  for (const std::size_t g : {std::size_t{64}, std::size_t{75}}) {
    const Parameters params = combination_params(g);
    Array3D<cfloat> grid(kNrPolarizations, g, g);
    fill_random(grid, static_cast<unsigned>(g) + 3);
    Array3D<cfloat> model(kNrPolarizations, g, g);
    fill_random(model, static_cast<unsigned>(g) + 5);
    const std::uint64_t nr_vis = 1234;

    const Array2D<float> correction = make_taper_correction_for(params);
    const float scale =
        static_cast<float>(1.0 / static_cast<double>(nr_vis));
    fft::Workspace<float> ws;
    Array3D<cfloat> dirty_ref(kNrPolarizations, g, g);
    Array3D<cfloat> grid_ref(kNrPolarizations, g, g);
    for (std::size_t pol = 0; pol < kNrPolarizations; ++pol) {
      std::copy_n(&grid(pol, 0, 0), g * g, &dirty_ref(pol, 0, 0));
      fft::cached_plan2d<float>(g, fft::Direction::Backward)
          .execute_centred(&dirty_ref(pol, 0, 0), ws);
      for (std::size_t y = 0; y < g; ++y)
        for (std::size_t x = 0; x < g; ++x)
          dirty_ref(pol, y, x) *= scale * correction(y, x);
      for (std::size_t y = 0; y < g; ++y)
        for (std::size_t x = 0; x < g; ++x)
          grid_ref(pol, y, x) = model(pol, y, x) * correction(y, x);
      fft::cached_plan2d<float>(g, fft::Direction::Forward)
          .execute_centred(&grid_ref(pol, 0, 0), ws);
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("grid " + std::to_string(g) + ", " +
                   std::to_string(threads) + " thread(s)");
      const ScopedThreads team(threads);
      const Array3D<cfloat> dirty = make_dirty_image(grid, nr_vis, params);
      EXPECT_EQ(std::memcmp(dirty.data(), dirty_ref.data(), dirty.bytes()),
                0);
      const Array3D<cfloat> model_grid = model_image_to_grid(model, params);
      EXPECT_EQ(std::memcmp(model_grid.data(), grid_ref.data(),
                            model_grid.bytes()),
                0);
    }
  }
}

/// Expects `fn` to throw idg::Error whose message contains `substring`.
template <typename Fn>
void expect_error_containing(Fn fn, const std::string& substring) {
  try {
    fn();
    FAIL() << "expected idg::Error containing '" << substring << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(WStackCombineTest, PlaneStackOfTheWrongShapeIsRejectedByName) {
  const std::size_t g = 64;
  WStackProcessor proc(combination_params(g), WPlaneModel(4, 500.0));
  const auto dirty_of = [&](std::size_t planes, std::size_t pols,
                            std::size_t size) {
    return [&proc, planes, pols, size] {
      Array4D<cfloat> grids(planes, pols, size, size);
      proc.make_dirty_image(grids.cview(), 100);
    };
  };
  // Fewer planes than the model, a larger grid, two polarisations.
  expect_error_containing(dirty_of(3, 4, g), "plane-grid stack is 3x4x64x64");
  expect_error_containing(dirty_of(4, 4, 2 * g),
                          "plane-grid stack is 4x4x128x128");
  expect_error_containing(dirty_of(4, 2, g), "plane-grid stack is 4x2x64x64");

  const auto model_of = [&](std::size_t pols, std::size_t size) {
    return [&proc, pols, size] {
      proc.model_image_to_grids(Array3D<cfloat>(pols, size, size));
    };
  };
  expect_error_containing(model_of(4, g + 1), "model image is 4x65x65");
  expect_error_containing(model_of(2, g), "model image is 2x64x64");
}

// --- pipelined executor -------------------------------------------------------------

TEST(PipelinedTest, MatchesSynchronousProcessorExactly) {
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 8;
  cfg.nr_timesteps = 64;
  cfg.nr_channels = 4;
  cfg.grid_size = 256;
  cfg.subgrid_size = 24;
  auto ds = sim::make_benchmark_dataset(cfg);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = 8;
  params.work_group_size = 4;  // force several in-flight work groups
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  EXPECT_GT(plan.nr_work_groups(), 3u);
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          cfg.subgrid_size);

  Processor sync(params);
  Array3D<cfloat> grid_sync(4, params.grid_size, params.grid_size);
  sync.grid_visibilities(plan, ds.uvw.cview(), ds.visibilities.cview(),
                         aterms.cview(), grid_sync.view());

  PipelinedProcessor async(params, reference_kernels(), 3);
  Array3D<cfloat> grid_async(4, params.grid_size, params.grid_size);
  obs::AggregateSink sink;
  async.grid(plan, ds.uvw.cview(), ds.visibilities.cview(), aterms.cview(),
             grid_async.view(), sink);

  // Same kernels, same group order, same accumulation order: bit-identical.
  for (std::size_t i = 0; i < grid_sync.size(); ++i) {
    EXPECT_EQ(grid_sync.data()[i], grid_async.data()[i]) << "pixel " << i;
    if (grid_sync.data()[i] != grid_async.data()[i]) break;
  }
  EXPECT_GT(sink.seconds(stage::kGridder), 0.0);
  EXPECT_GT(sink.seconds(stage::kAdder), 0.0);
}

TEST(PipelinedTest, WorksWithMoreBuffersThanGroups) {
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 4;
  cfg.nr_timesteps = 8;
  cfg.nr_channels = 2;
  cfg.grid_size = 128;
  cfg.subgrid_size = 16;
  auto ds = sim::make_benchmark_dataset(cfg);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = 4;
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          cfg.subgrid_size);

  PipelinedProcessor async(params, reference_kernels(), 8);
  Array3D<cfloat> grid(4, params.grid_size, params.grid_size);
  async.grid(plan, ds.uvw.cview(), ds.visibilities.cview(), aterms.cview(),
             grid.view());
  double total = 0.0;
  for (const auto& v : grid) total += std::abs(v);
  EXPECT_GT(total, 0.0);
}

TEST(PipelinedTest, DegridderMatchesSynchronousProcessorExactly) {
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 8;
  cfg.nr_timesteps = 64;
  cfg.nr_channels = 4;
  cfg.grid_size = 256;
  cfg.subgrid_size = 24;
  auto ds = sim::make_benchmark_dataset(cfg);

  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.kernel_size = 8;
  params.work_group_size = 4;
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          cfg.subgrid_size);

  // A non-trivial grid to degrid from.
  Array3D<cfloat> grid(4, params.grid_size, params.grid_size);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : grid) v = {dist(rng), dist(rng)};

  Processor sync(params);
  Array3D<Visibility> vis_sync(ds.nr_baselines(), ds.nr_timesteps(),
                               ds.nr_channels());
  sync.degrid_visibilities(plan, ds.uvw.cview(), grid.cview(),
                           aterms.cview(), vis_sync.view());

  PipelinedProcessor async(params, reference_kernels(), 3);
  Array3D<Visibility> vis_async(ds.nr_baselines(), ds.nr_timesteps(),
                                ds.nr_channels());
  obs::AggregateSink sink;
  async.degrid(plan, ds.uvw.cview(), grid.cview(), aterms.cview(),
               vis_async.view(), sink);

  for (std::size_t i = 0; i < vis_sync.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      ASSERT_EQ(vis_sync.data()[i][p], vis_async.data()[i][p])
          << "sample " << i << " pol " << p;
    }
  }
  EXPECT_GT(sink.seconds(stage::kDegridder), 0.0);
  EXPECT_GT(sink.seconds(stage::kSplitter), 0.0);
  EXPECT_GT(sink.seconds(stage::kSubgridFft), 0.0);
}

// --- kernel streams -------------------------------------------------------------
//
// The pipelined executor runs omp_get_num_procs() / omp_get_max_threads()
// kernel streams, at most nr_buffers - 1; with the caller's team at one
// thread and three buffers that is two streams on any host with two CPUs.

#define SKIP_WITHOUT_TWO_CPUS()                           \
  if (omp_get_num_procs() < 2) {                          \
    GTEST_SKIP() << "two kernel streams need two CPUs";   \
  }

/// A dataset with several work groups per call, for the stream tests.
struct StreamSetup {
  sim::Dataset ds;
  Parameters params;
  sim::ATermCube aterms;

  static StreamSetup make(BadSamplePolicy policy) {
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
    params.work_group_size = 4;
    params.bad_sample_policy = policy;
    auto aterms =
        sim::make_identity_aterms(1, cfg.nr_stations, cfg.subgrid_size);
    return {std::move(ds), params, std::move(aterms)};
  }
};

TEST(PipelinedStreamsTest, TwoStreamsMatchTheProcessorByteForByte) {
  SKIP_WITHOUT_TWO_CPUS();
  const ScopedThreads team(1);
  struct Case {
    const char* name;
    int planes;
    BadSamplePolicy policy;
    bool flagged;
    bool skip_group_1;
  };
  for (const Case& c :
       {Case{"4-plane stack", 4, BadSamplePolicy::kZeroAndContinue, false,
             false},
        Case{"flagged, zero_and_continue", 1,
             BadSamplePolicy::kZeroAndContinue, true, false},
        Case{"flagged, skip_work_group", 1, BadSamplePolicy::kSkipWorkGroup,
             true, false},
        Case{"skip_groups mask", 1, BadSamplePolicy::kZeroAndContinue, false,
             true}}) {
    SCOPED_TRACE(c.name);
    auto s = StreamSetup::make(c.policy);
    if (c.flagged) {
      sim::apply_rfi_flags(s.ds, 0.0);
      s.ds.flags(0, 0, 0) = 1;
      s.ds.flags(4, 9, 2) = 1;
      s.ds.flags(9, 20, 1) = 1;
    }
    const WPlaneModel wplanes =
        WPlaneModel::fit(c.planes, s.ds.uvw, s.ds.frequencies);
    const Plan plan(s.params, s.ds.uvw, s.ds.frequencies, s.ds.baselines,
                    c.planes > 1 ? &wplanes : nullptr);
    ASSERT_GT(plan.nr_work_groups(), 3u);
    if (c.planes > 1) {
      ASSERT_TRUE(std::any_of(
          plan.items().begin(), plan.items().end(),
          [](const WorkItem& item) { return item.w_plane > 1; }));
    }
    std::vector<std::uint8_t> skip(plan.nr_work_groups(), 0);
    skip[1] = c.skip_group_1 ? 1 : 0;
    RunControl ctl;
    ctl.skip_groups = skip;

    const Processor sync(s.params);
    const PipelinedProcessor piped(s.params);
    const std::size_t g = s.params.grid_size;
    const auto planes = static_cast<std::size_t>(c.planes);
    Array3D<cfloat> grid_sync(planes * kNrPolarizations, g, g);
    Array3D<cfloat> grid_piped(planes * kNrPolarizations, g, g);
    sync.grid(plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
              s.ds.flag_view(), s.aterms.cview(), grid_sync.view(),
              obs::null_sink(), ctl);
    piped.grid(plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
               s.ds.flag_view(), s.aterms.cview(), grid_piped.view(),
               obs::null_sink(), ctl);
    EXPECT_TRUE(std::any_of(grid_sync.begin(), grid_sync.end(),
                            [](cfloat v) { return v != cfloat{}; }));
    EXPECT_EQ(std::memcmp(grid_sync.data(), grid_piped.data(),
                          grid_sync.bytes()),
              0);

    Array3D<Visibility> vis_sync(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                 s.ds.nr_channels());
    Array3D<Visibility> vis_piped(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                  s.ds.nr_channels());
    sync.degrid(plan, s.ds.uvw.cview(), grid_sync.cview(), s.ds.flag_view(),
                s.aterms.cview(), vis_sync.view(), obs::null_sink(), ctl);
    piped.degrid(plan, s.ds.uvw.cview(), grid_sync.cview(), s.ds.flag_view(),
                 s.aterms.cview(), vis_piped.view(), obs::null_sink(), ctl);
    EXPECT_EQ(
        std::memcmp(vis_sync.data(), vis_piped.data(), vis_sync.bytes()), 0);
  }
}

/// Records which threads reported gridder spans. The first gridder span
/// holds its thread (for at most 10 s) until another thread reports one,
/// so a second stream, if the call has one, takes a group while the first
/// is held, however the host schedules the streams.
class GridderThreadsSink : public obs::MetricsSink {
 public:
  void record(std::string_view stage_name, double, std::uint64_t) override {
    if (stage_name != stage::kGridder) return;
    std::unique_lock lock(mutex_);
    threads_.insert(std::this_thread::get_id());
    second_thread_.notify_all();
    if (held_) return;
    held_ = true;
    second_thread_.wait_for(lock, std::chrono::seconds(10),
                            [&] { return threads_.size() >= 2; });
  }
  void record_ops(std::string_view, const OpCounts&) override {}

  std::size_t nr_threads() const {
    std::lock_guard lock(mutex_);
    return threads_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable second_thread_;
  bool held_ = false;
  std::set<std::thread::id> threads_;
};

TEST(PipelinedStreamsTest, OneThreadTeamsGridOnTwoStreams) {
  SKIP_WITHOUT_TWO_CPUS();
  const ScopedThreads team(1);
  auto s = StreamSetup::make(BadSamplePolicy::kZeroAndContinue);
  const Plan plan(s.params, s.ds.uvw, s.ds.frequencies, s.ds.baselines);
  ASSERT_GT(plan.nr_work_groups(), 3u);
  const PipelinedProcessor piped(s.params);
  Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                       s.params.grid_size);
  GridderThreadsSink sink;
  piped.grid(plan, s.ds.uvw.cview(), s.ds.visibilities.cview(),
             s.aterms.cview(), grid.view(), sink);
  EXPECT_GE(sink.nr_threads(), 2u);
}

TEST(PipelinedTest, RejectsSingleBuffer) {
  Parameters params;
  params.grid_size = 128;
  params.subgrid_size = 16;
  params.image_size = 0.01;
  params.nr_stations = 2;
  EXPECT_THROW(PipelinedProcessor(params, reference_kernels(), 1), Error);
}

}  // namespace
