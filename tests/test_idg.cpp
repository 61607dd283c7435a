// Correctness tests for the IDG core: taper, plan invariants, kernel phase
// conventions, gridder/degridder adjointness, and end-to-end accuracy
// against the direct (exact) predictor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>

#include "idg/accounting.hpp"
#include "idg/adder.hpp"
#include "idg/backend.hpp"
#include "idg/image.hpp"
#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/subgrid_fft.hpp"
#include "idg/taper.hpp"
#include "idg/wplane.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"

namespace {

using namespace idg;

// --- taper -------------------------------------------------------------------

TEST(TaperTest, PswfIsOneAtCenterAndFallsOff) {
  EXPECT_NEAR(pswf(0.0), 1.0, 1e-6);
  EXPECT_GT(pswf(0.0), pswf(0.5));
  EXPECT_GT(pswf(0.5), pswf(0.9));
  EXPECT_GT(pswf(0.9), 0.0);
}

TEST(TaperTest, PswfIsEven) {
  for (double eta : {0.1, 0.3, 0.77, 0.95}) {
    EXPECT_DOUBLE_EQ(pswf(eta), pswf(-eta));
  }
}

TEST(TaperTest, PswfVanishesOutsideSupport) {
  EXPECT_EQ(pswf(1.5), 0.0);
  EXPECT_EQ(pswf(-2.0), 0.0);
}

TEST(TaperTest, PswfIsContinuousAcrossPieceBoundary) {
  EXPECT_NEAR(pswf(0.7499), pswf(0.7501), 1e-3);
}

TEST(TaperTest, GriddingFunctionVanishesAtEdge) {
  EXPECT_NEAR(pswf_gridding_function(1.0), 0.0, 1e-12);
  EXPECT_GT(pswf_gridding_function(0.0), 0.9);
}

TEST(TaperTest, TaperRasterIsSeparableAndPeaksAtCenter) {
  auto taper = make_taper(24);
  EXPECT_NEAR(taper(12, 12), 1.0f, 1e-5f);
  // Separability: taper(y,x) * taper(c,c) == taper(y,c) * taper(c,x).
  const float lhs = taper(5, 9) * taper(12, 12);
  const float rhs = taper(5, 12) * taper(12, 9);
  EXPECT_NEAR(lhs, rhs, 1e-5f);
}

TEST(TaperTest, CorrectionInvertsTaper) {
  auto taper = make_taper(32);
  auto corr = make_taper_correction(32);
  for (std::size_t y = 4; y < 28; ++y)
    for (std::size_t x = 4; x < 28; ++x)
      EXPECT_NEAR(taper(y, x) * corr(y, x), 1.0f, 1e-4f);
}

TEST(TaperTest, CorrectionClampedAtFieldEdge) {
  auto corr = make_taper_correction(32, 0.5);
  EXPECT_EQ(corr(0, 0), 0.0f);  // taper << 0.5 at the corner
}

// --- shared fixture -----------------------------------------------------------

struct Setup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;

  static Setup make(int stations, int timesteps, int channels,
                    std::size_t grid, std::size_t subgrid,
                    std::size_t kernel_size, int aterm_interval = 1 << 20) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = stations;
    cfg.nr_timesteps = timesteps;
    cfg.nr_channels = channels;
    cfg.grid_size = grid;
    cfg.subgrid_size = subgrid;
    cfg.integration_time_s = 4.0;
    auto ds = sim::make_benchmark_dataset_no_vis(cfg);

    Parameters params;
    params.grid_size = grid;
    params.subgrid_size = subgrid;
    params.image_size = ds.image_size;
    params.nr_stations = stations;
    params.kernel_size = kernel_size;
    params.aterm_interval = aterm_interval;
    params.max_timesteps_per_subgrid = 64;

    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_identity_aterms(
        (timesteps + aterm_interval - 1) / aterm_interval, stations, subgrid);
    return {std::move(ds), params, std::move(plan), std::move(aterms)};
  }
};

// --- plan invariants ------------------------------------------------------------

TEST(PlanTest, CoversEveryVisibilityExactlyOnce) {
  auto s = Setup::make(6, 64, 8, 256, 24, 8);
  ASSERT_EQ(s.plan.nr_dropped_visibilities(), 0u);

  // Mark every (baseline, time, channel) covered by an item; each must be
  // covered exactly once and all of them must be covered.
  Array3D<int> covered(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                       s.ds.nr_channels());
  for (const WorkItem& item : s.plan.items()) {
    for (int t = 0; t < item.nr_timesteps; ++t)
      for (int c = 0; c < item.nr_channels; ++c)
        covered(static_cast<std::size_t>(item.baseline),
                static_cast<std::size_t>(item.time_begin + t),
                static_cast<std::size_t>(item.channel_begin + c)) += 1;
  }
  for (const int v : covered) EXPECT_EQ(v, 1);
  EXPECT_EQ(s.plan.nr_planned_visibilities(),
            s.ds.nr_baselines() * s.ds.nr_timesteps() * s.ds.nr_channels());
}

TEST(PlanTest, PatchesLieInsideGrid) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  const int n = static_cast<int>(s.params.subgrid_size);
  const int g = static_cast<int>(s.params.grid_size);
  for (const WorkItem& item : s.plan.items()) {
    EXPECT_GE(item.coord_x, 0);
    EXPECT_GE(item.coord_y, 0);
    EXPECT_LE(item.coord_x + n, g);
    EXPECT_LE(item.coord_y + n, g);
  }
}

TEST(PlanTest, MembersRespectKernelSupportMargin) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  // Every member visibility's uv pixel must lie within the subgrid minus
  // half the kernel support on each side.
  const double margin = static_cast<double>(s.params.kernel_size) / 2.0;
  const double n = static_cast<double>(s.params.subgrid_size);
  for (const WorkItem& item : s.plan.items()) {
    for (int t = 0; t < item.nr_timesteps; ++t) {
      const UVW& c = s.ds.uvw(static_cast<std::size_t>(item.baseline),
                              static_cast<std::size_t>(item.time_begin + t));
      for (int ch = 0; ch < item.nr_channels; ++ch) {
        const double f =
            s.ds.frequencies[static_cast<std::size_t>(item.channel_begin + ch)];
        const double u_pix = c.u * f / kSpeedOfLight * s.params.image_size +
                             static_cast<double>(s.params.grid_size) / 2.0;
        const double v_pix = c.v * f / kSpeedOfLight * s.params.image_size +
                             static_cast<double>(s.params.grid_size) / 2.0;
        const double du = u_pix - item.coord_x;
        const double dv = v_pix - item.coord_y;
        EXPECT_GE(du, margin - 1.0);
        EXPECT_LE(du, n - margin + 1.0);
        EXPECT_GE(dv, margin - 1.0);
        EXPECT_LE(dv, n - margin + 1.0);
      }
    }
  }
}

TEST(PlanTest, RespectsMaxTimestepsAndATermSlots) {
  auto s = Setup::make(6, 128, 4, 256, 24, 8, /*aterm_interval=*/32);
  for (const WorkItem& item : s.plan.items()) {
    EXPECT_LE(item.nr_timesteps, s.params.max_timesteps_per_subgrid);
    const int slot_begin = item.time_begin / 32;
    const int slot_last = (item.time_begin + item.nr_timesteps - 1) / 32;
    EXPECT_EQ(slot_begin, slot_last) << "item spans two A-term slots";
    EXPECT_EQ(item.aterm_slot, slot_begin);
  }
}

TEST(PlanTest, WorkGroupsPartitionItems) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  // The largest size, where a ceiling division by addition would wrap to
  // zero groups, must give one group of every item.
  for (const std::size_t size : {s.params.work_group_size, std::size_t{7},
                                 std::numeric_limits<std::size_t>::max()}) {
    Parameters params = s.params;
    params.work_group_size = size;
    const Plan plan = Plan::from_parts(
        params, s.plan.items(), s.plan.wavenumbers(),
        s.plan.nr_planned_visibilities(), s.plan.nr_dropped_visibilities());
    std::size_t total = 0;
    for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
      auto group = plan.work_group(g);
      EXPECT_LE(group.size(), size);
      EXPECT_GT(group.size(), 0u);
      total += group.size();
    }
    EXPECT_EQ(total, plan.nr_subgrids()) << "work_group_size " << size;
  }
}

TEST(PlanTest, WavenumbersMatchFrequencies) {
  auto s = Setup::make(4, 8, 4, 256, 24, 8);
  ASSERT_EQ(s.plan.wavenumbers().size(), s.ds.frequencies.size());
  for (std::size_t c = 0; c < s.ds.frequencies.size(); ++c) {
    EXPECT_NEAR(s.plan.wavenumbers()[c],
                2.0 * M_PI * s.ds.frequencies[c] / kSpeedOfLight,
                1e-3);
  }
}

TEST(PlanTest, AverageVisibilitiesPerSubgridIsPositive) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  EXPECT_GT(s.plan.avg_visibilities_per_subgrid(), 1.0);
}

TEST(PlanTest, BadBaselineStationThrows) {
  auto s = Setup::make(4, 8, 4, 256, 24, 8);
  Parameters p = s.params;
  p.nr_stations = 2;  // baselines reference stations >= 2
  EXPECT_THROW(Plan(p, s.ds.uvw, s.ds.frequencies, s.ds.baselines), Error);
}

// --- kernel phase convention -----------------------------------------------------

// A single visibility placed exactly on a grid cell must, after gridding
// and the subgrid FFT, produce its peak at exactly that cell, carrying the
// visibility's value times the taper's DC response.
TEST(KernelConventionTest, ExactCellVisibilityLandsOnItsCell) {
  Parameters params;
  params.grid_size = 128;
  params.subgrid_size = 16;
  params.image_size = 0.05;
  params.nr_stations = 2;
  params.kernel_size = 4;

  // Choose uvw so that u = 10 cells, v = -6 cells at wavenumber of a single
  // channel: u_lambda = cells / image_size.
  const double freq = 150e6;
  const double lambda = kSpeedOfLight / freq;
  const int cell_u = 10, cell_v = -6;
  Array2D<UVW> uvw(1, 1);
  uvw(0, 0) = {static_cast<float>(cell_u / params.image_size * lambda),
               static_cast<float>(cell_v / params.image_size * lambda), 0.0f};

  std::vector<Baseline> baselines = {{0, 1}};
  Plan plan(params, uvw, {freq}, baselines);
  ASSERT_EQ(plan.nr_subgrids(), 1u);
  const WorkItem& item = plan.items()[0];

  Array3D<Visibility> vis(1, 1, 1);
  const cfloat value{2.0f, -1.0f};
  vis(0, 0, 0) = {value, value, value, value};

  auto aterms = sim::make_identity_aterms(1, 2, params.subgrid_size);
  auto taper = make_taper(params.subgrid_size);
  KernelData data{uvw.cview(), plan.wavenumbers(), aterms.cview(),
                  taper.cview()};

  Array4D<cfloat> subgrids(1, 4, params.subgrid_size, params.subgrid_size);
  reference_kernels().grid(params, data, plan.items(), vis.cview(),
                           subgrids.view());
  subgrid_fft(SubgridFftDirection::ToFourier, subgrids.view(), 1);

  // Find the peak of polarization 0 in the patch.
  std::size_t peak_y = 0, peak_x = 0;
  float peak = -1.0f;
  for (std::size_t y = 0; y < params.subgrid_size; ++y) {
    for (std::size_t x = 0; x < params.subgrid_size; ++x) {
      const float a = std::abs(subgrids(0, 0, y, x));
      if (a > peak) {
        peak = a;
        peak_y = y;
        peak_x = x;
      }
    }
  }
  const int grid_x = item.coord_x + static_cast<int>(peak_x);
  const int grid_y = item.coord_y + static_cast<int>(peak_y);
  EXPECT_EQ(grid_x, cell_u + 64);
  EXPECT_EQ(grid_y, cell_v + 64);

  // The peak must carry the visibility value scaled by the taper's mean
  // (DC response of the taper kernel): patch_peak = V * mean(taper).
  double taper_mean = 0.0;
  for (const float t : taper) taper_mean += t;
  taper_mean /= static_cast<double>(taper.size());
  const cfloat expected = value * static_cast<float>(taper_mean);
  EXPECT_NEAR(std::abs(subgrids(0, 0, peak_y, peak_x) - expected), 0.0f,
              2e-3f * std::abs(expected));
}

// --- adjointness ------------------------------------------------------------------

// <G v, g> == <v, G+ g>: the degridding chain is the exact adjoint of the
// gridding chain. This single property pins down every phase sign, FFT
// direction, shift and scale in the pipeline.
TEST(AdjointTest, GridAndDegridAreAdjoint) {
  auto s = Setup::make(5, 24, 4, 256, 24, 8);
  Processor proc(s.params);

  std::mt19937 rng(11);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);

  // Random visibilities.
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  for (auto& v : vis)
    v = {{dist(rng), dist(rng)},
         {dist(rng), dist(rng)},
         {dist(rng), dist(rng)},
         {dist(rng), dist(rng)}};

  // Random grid.
  Array3D<cfloat> grid(4, s.params.grid_size, s.params.grid_size);
  for (auto& g : grid) g = {dist(rng), dist(rng)};

  // Forward: G v.
  Array3D<cfloat> gv(4, s.params.grid_size, s.params.grid_size);
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), vis.cview(),
                         s.aterms.cview(), gv.view());

  // Adjoint: G+ g.
  Array3D<Visibility> gtg(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  proc.degrid_visibilities(s.plan, s.ds.uvw.cview(), grid.cview(),
                           s.aterms.cview(), gtg.view());

  // <G v, g> over grid pixels.
  std::complex<double> lhs{};
  for (std::size_t i = 0; i < grid.size(); ++i) {
    lhs += std::conj(std::complex<double>(gv.data()[i])) *
           std::complex<double>(grid.data()[i]);
  }
  // <v, G+ g> over visibility components.
  std::complex<double> rhs{};
  for (std::size_t i = 0; i < vis.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      rhs += std::conj(std::complex<double>(vis.data()[i][p])) *
             std::complex<double>(gtg.data()[i][p]);
    }
  }
  const double scale = std::max({1.0, std::abs(lhs), std::abs(rhs)});
  EXPECT_NEAR(lhs.real(), rhs.real(), 2e-3 * scale);
  EXPECT_NEAR(lhs.imag(), rhs.imag(), 2e-3 * scale);
}

// --- end-to-end accuracy ------------------------------------------------------------

// Degridding a model grid built from pixel-centred point sources must
// reproduce the direct (exact) prediction of those sources.
TEST(AccuracyTest, DegriddingMatchesDirectPrediction) {
  auto s = Setup::make(6, 32, 4, 256, 32, 16);

  // Sources exactly on master-grid pixel centres, well inside the field.
  const double dl = s.params.image_size / static_cast<double>(s.params.grid_size);
  sim::SkyModel sky = {
      sim::PointSource{static_cast<float>(20 * dl), static_cast<float>(-14 * dl), 1.0f},
      sim::PointSource{static_cast<float>(-33 * dl), static_cast<float>(8 * dl), 0.5f},
      sim::PointSource{0.0f, 0.0f, 0.25f},
  };
  auto expected = sim::predict_visibilities(sky, s.ds.uvw, s.ds.baselines,
                                            s.ds.obs);

  // Model image -> model grid -> degrid.
  auto model = sim::render_sky_image(sky, s.params.grid_size,
                                     s.params.image_size);
  auto grid = model_image_to_grid(model, s.params);

  Processor proc(s.params);
  Array3D<Visibility> predicted(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                s.ds.nr_channels());
  proc.degrid_visibilities(s.plan, s.ds.uvw.cview(), grid.cview(),
                           s.aterms.cview(), predicted.view());

  const double rms = sim::rms_amplitude(expected);
  const double err = sim::max_abs_difference(expected, predicted);
  EXPECT_LT(err, 0.02 * rms) << "max error " << err << " vs rms " << rms;
}

// Gridding directly-predicted visibilities of a point source must produce a
// dirty image peaking at the source pixel with the source flux.
TEST(AccuracyTest, GriddingRecoversPointSource) {
  auto s = Setup::make(6, 32, 4, 256, 32, 16);

  const double dl = s.params.image_size / static_cast<double>(s.params.grid_size);
  const int px = 24, py = -10;  // offsets from image centre, in pixels
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(px * dl),
                                        static_cast<float>(py * dl), 2.0f}};
  auto vis = sim::predict_visibilities(sky, s.ds.uvw, s.ds.baselines,
                                       s.ds.obs);

  Processor proc(s.params);
  Array3D<cfloat> grid(4, s.params.grid_size, s.params.grid_size);
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), vis.cview(),
                         s.aterms.cview(), grid.view());
  auto image = make_dirty_image(grid, s.plan.nr_planned_visibilities(),
                                s.params);

  const std::size_t cx = s.params.grid_size / 2 + px;
  const std::size_t cy = s.params.grid_size / 2 + py;
  EXPECT_NEAR(image(0, cy, cx).real(), 2.0f, 0.05f);

  // The peak must be the global maximum of the XX dirty image.
  float max_val = -1.0f;
  std::size_t max_x = 0, max_y = 0;
  for (std::size_t y = 8; y < s.params.grid_size - 8; ++y) {
    for (std::size_t x = 8; x < s.params.grid_size - 8; ++x) {
      if (image(0, y, x).real() > max_val) {
        max_val = image(0, y, x).real();
        max_x = x;
        max_y = y;
      }
    }
  }
  EXPECT_EQ(max_x, cx);
  EXPECT_EQ(max_y, cy);
}

// The W-term: sources away from the phase centre observed with substantial
// w must still degrid correctly (this is the correction IDG applies in the
// image domain — disabling it must visibly break the prediction).
TEST(AccuracyTest, WTermCorrectionMatters) {
  auto s = Setup::make(6, 32, 4, 256, 32, 16);

  const double dl = s.params.image_size / static_cast<double>(s.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(80 * dl),
                                        static_cast<float>(70 * dl), 1.0f}};
  auto expected = sim::predict_visibilities(sky, s.ds.uvw, s.ds.baselines,
                                            s.ds.obs);
  auto model = sim::render_sky_image(sky, s.params.grid_size,
                                     s.params.image_size);
  auto grid = model_image_to_grid(model, s.params);

  Processor proc(s.params);
  Array3D<Visibility> predicted(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                s.ds.nr_channels());
  proc.degrid_visibilities(s.plan, s.ds.uvw.cview(), grid.cview(),
                           s.aterms.cview(), predicted.view());

  const double rms = sim::rms_amplitude(expected);
  EXPECT_LT(sim::max_abs_difference(expected, predicted), 0.03 * rms);

  // Break the w handling on purpose: zero all w coordinates in a copy used
  // for prediction only (the plan/grid stay w-aware). If the image-domain
  // w-correction were a no-op, this would not change anything.
  Array2D<UVW> uvw_no_w(s.ds.uvw.dims());
  for (std::size_t i = 0; i < s.ds.uvw.size(); ++i) {
    UVW c = s.ds.uvw.data()[i];
    c.w = 0.0f;
    uvw_no_w.data()[i] = c;
  }
  auto expected_no_w = sim::predict_visibilities(sky, uvw_no_w,
                                                 s.ds.baselines, s.ds.obs);
  EXPECT_GT(sim::max_abs_difference(expected, expected_no_w), 0.05 * rms)
      << "test data has too little w for this check to be meaningful";
}

// A-term corruption applied by the predictor must be removed by gridding
// with the same A-terms.
TEST(AccuracyTest, ATermCorrectionRecoversCorruptedVisibilities) {
  const int stations = 5, timesteps = 32, channels = 4;
  const std::size_t grid_size = 256, subgrid = 32;
  auto s = Setup::make(stations, timesteps, channels, grid_size, subgrid, 16,
                       /*aterm_interval=*/8);

  auto screens = sim::make_phase_screen_aterms(
      timesteps / 8, stations, subgrid, s.params.image_size, 0.8, 21);

  const double dl = s.params.image_size / static_cast<double>(grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(16 * dl),
                                        static_cast<float>(12 * dl), 1.5f}};

  // Corrupted observation.
  sim::ATermContext ctx{&screens, 8, s.params.image_size};
  auto corrupted = sim::predict_visibilities(sky, s.ds.uvw, s.ds.baselines,
                                             s.ds.obs, ctx);

  // Grid with the matching A-terms: the correction happens in the image
  // domain inside the gridder kernel.
  Processor proc(s.params);
  Array3D<cfloat> grid(4, grid_size, grid_size);
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), corrupted.cview(),
                         screens.cview(), grid.view());
  auto image = make_dirty_image(grid, s.plan.nr_planned_visibilities(),
                                s.params);

  const std::size_t cx = grid_size / 2 + 16;
  const std::size_t cy = grid_size / 2 + 12;
  EXPECT_NEAR(image(0, cy, cx).real(), 1.5f, 0.08f);

  // Control: gridding the corrupted data with identity A-terms must smear
  // the source (noticeably lower peak).
  Array3D<cfloat> grid2(4, grid_size, grid_size);
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), corrupted.cview(),
                         s.aterms.cview(), grid2.view());
  auto image2 = make_dirty_image(grid2, s.plan.nr_planned_visibilities(),
                                 s.params);
  EXPECT_LT(image2(0, cy, cx).real(), image(0, cy, cx).real() - 0.05f);
}

// --- roundtrip ---------------------------------------------------------------------

TEST(RoundtripTest, DegridThenGridPreservesPointSourceImage) {
  auto s = Setup::make(6, 32, 4, 256, 32, 16);
  const double dl = s.params.image_size / static_cast<double>(s.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(10 * dl),
                                        static_cast<float>(6 * dl), 1.0f}};
  auto model = sim::render_sky_image(sky, s.params.grid_size,
                                     s.params.image_size);
  auto grid = model_image_to_grid(model, s.params);

  Processor proc(s.params);
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  proc.degrid_visibilities(s.plan, s.ds.uvw.cview(), grid.cview(),
                           s.aterms.cview(), vis.view());

  Array3D<cfloat> regrid(4, s.params.grid_size, s.params.grid_size);
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), vis.cview(),
                         s.aterms.cview(), regrid.view());
  auto image = make_dirty_image(regrid, s.plan.nr_planned_visibilities(),
                                s.params);

  const std::size_t cx = s.params.grid_size / 2 + 10;
  const std::size_t cy = s.params.grid_size / 2 + 6;
  EXPECT_NEAR(image(0, cy, cx).real(), 1.0f, 0.05f);
}

// --- pipeline bookkeeping -------------------------------------------------------------

TEST(ProcessorTest, SinkCoversAllStages) {
  auto s = Setup::make(5, 16, 4, 256, 24, 8);
  Processor proc(s.params);
  Array3D<cfloat> grid(4, s.params.grid_size, s.params.grid_size);
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());

  obs::AggregateSink sink;
  proc.grid_visibilities(s.plan, s.ds.uvw.cview(), vis.cview(),
                         s.aterms.cview(), grid.view(), sink);
  proc.degrid_visibilities(s.plan, s.ds.uvw.cview(), grid.cview(),
                           s.aterms.cview(), vis.view(), sink);
  EXPECT_GT(sink.seconds(stage::kGridder), 0.0);
  EXPECT_GT(sink.seconds(stage::kDegridder), 0.0);
  EXPECT_GT(sink.seconds(stage::kSubgridFft), 0.0);
  EXPECT_GT(sink.seconds(stage::kAdder), 0.0);
  EXPECT_GT(sink.seconds(stage::kSplitter), 0.0);

  // The adder/splitter also report their actual grid+subgrid traffic.
  const auto snapshot = sink.snapshot();
  EXPECT_EQ(snapshot.at(stage::kAdder).moved_bytes,
            adder_moved_bytes(s.params, s.plan.nr_subgrids()));
  EXPECT_EQ(snapshot.at(stage::kSplitter).moved_bytes,
            splitter_moved_bytes(s.params, s.plan.nr_subgrids()));
}

TEST(AdderTest, SplitAfterAddRecoversIsolatedPatch) {
  Parameters params;
  params.grid_size = 64;
  params.subgrid_size = 8;
  params.image_size = 0.01;
  params.nr_stations = 2;
  params.kernel_size = 2;

  WorkItem item;
  item.coord_x = 10;
  item.coord_y = 20;
  std::vector<WorkItem> items = {item};

  Array4D<cfloat> subgrids(1, 4, 8, 8);
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : subgrids) v = {dist(rng), dist(rng)};

  Array3D<cfloat> grid(4, 64, 64);
  add_subgrids_to_grid(params, items, subgrids.cview(), grid.view());

  Array4D<cfloat> recovered(1, 4, 8, 8);
  split_subgrids_from_grid(params, items, grid.cview(), recovered.view());
  for (std::size_t i = 0; i < subgrids.size(); ++i)
    EXPECT_EQ(subgrids.data()[i], recovered.data()[i]);
}

TEST(AdderTest, OverlappingPatchesAccumulate) {
  Parameters params;
  params.grid_size = 64;
  params.subgrid_size = 8;
  params.image_size = 0.01;
  params.nr_stations = 2;
  params.kernel_size = 2;

  WorkItem a, b;
  a.coord_x = a.coord_y = 10;
  b.coord_x = b.coord_y = 14;  // overlaps a by 4 pixels in each dimension
  std::vector<WorkItem> items = {a, b};

  Array4D<cfloat> subgrids(2, 4, 8, 8);
  subgrids.fill(cfloat{1.0f, 0.0f});
  Array3D<cfloat> grid(4, 64, 64);
  add_subgrids_to_grid(params, items, subgrids.cview(), grid.view());

  EXPECT_EQ(grid(0, 10, 10), (cfloat{1.0f, 0.0f}));
  EXPECT_EQ(grid(0, 15, 15), (cfloat{2.0f, 0.0f}));  // overlap region
  EXPECT_EQ(grid(0, 21, 21), (cfloat{1.0f, 0.0f}));
  EXPECT_EQ(grid(0, 30, 30), (cfloat{0.0f, 0.0f}));
}

TEST(AdderTest, PatchOutsideGridThrows) {
  Parameters params;
  params.grid_size = 64;
  params.subgrid_size = 8;
  params.image_size = 0.01;
  params.nr_stations = 2;
  params.kernel_size = 2;

  WorkItem item;
  item.coord_x = 60;  // 60 + 8 > 64
  item.coord_y = 0;
  std::vector<WorkItem> items = {item};
  Array4D<cfloat> subgrids(1, 4, 8, 8);
  Array3D<cfloat> grid(4, 64, 64);
  EXPECT_THROW(
      add_subgrids_to_grid(params, items, subgrids.cview(), grid.view()),
      Error);
}

TEST(AdderTest, WPlaneWithoutGridThrowsOnEveryExecutor) {
  // A two-plane w-stacked plan against a one-plane grid: the adder and every
  // executor reject it by name before any stage runs.
  auto s = Setup::make(5, 16, 4, 256, 24, 8);
  const WPlaneModel wplanes = WPlaneModel::fit(2, s.ds.uvw, s.ds.frequencies);
  const Plan plan(s.params, s.ds.uvw, s.ds.frequencies, s.ds.baselines,
                  &wplanes);
  ASSERT_TRUE(std::any_of(plan.items().begin(), plan.items().end(),
                          [](const WorkItem& item) { return item.w_plane == 1; }));

  const std::size_t g = s.params.grid_size;
  const std::size_t n = s.params.subgrid_size;
  Array3D<cfloat> grid(4, g, g);
  Array4D<cfloat> subgrids(plan.nr_subgrids(), 4, n, n);
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  const auto expect_named = [](const std::string& who, const auto& call) {
    try {
      call();
      ADD_FAILURE() << who << " accepted a grid without w-plane 1";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("w-plane 1"), std::string::npos)
          << who << ": " << e.what();
    }
  };
  expect_named("adder", [&] {
    add_subgrids_to_grid(s.params, plan.items(), subgrids.cview(),
                         grid.view());
  });
  for (const std::string& name : backend_names()) {
    auto backend = make_backend(name, s.params);
    obs::AggregateSink sink;
    expect_named(name + " grid", [&] {
      backend->grid(plan, s.ds.uvw.cview(), vis.cview(), s.aterms.cview(),
                    grid.view(), sink);
    });
    expect_named(name + " degrid", [&] {
      backend->degrid(plan, s.ds.uvw.cview(), grid.cview(), s.aterms.cview(),
                      vis.view(), sink);
    });
    const auto snapshot = sink.snapshot();
    for (const char* st : {stage::kScrub, stage::kGridder, stage::kSplitter})
      EXPECT_EQ(snapshot.count(st), 0u) << name << " recorded " << st;
  }
}

// Shared scenario for the tiled-adder tests: a grid the tile size does not
// divide (ragged edge tiles), items straddling tile boundaries, stacked
// overlaps and the extreme bottom-right corner patch, spread over three
// w-planes of a plane-stacked grid.
struct TiledScenario {
  static constexpr std::size_t kPlanes = 3;
  Parameters params;
  std::vector<WorkItem> items;
  Array4D<cfloat> subgrids;

  Array3D<cfloat> make_grid() const {
    return Array3D<cfloat>(kPlanes * 4, params.grid_size, params.grid_size);
  }

  static TiledScenario make() {
    TiledScenario sc;
    sc.params.grid_size = 60;  // 60 / 16 = 3.75 -> ragged last tile row/col
    sc.params.subgrid_size = 8;
    sc.params.image_size = 0.01;
    sc.params.nr_stations = 2;
    sc.params.kernel_size = 2;
    sc.params.adder_tile_size = 16;

    std::mt19937 rng(11);
    std::uniform_int_distribution<int> pos(0, 60 - 8);
    for (int i = 0; i < 40; ++i) {
      WorkItem item;
      item.coord_x = pos(rng);
      item.coord_y = pos(rng);
      sc.items.push_back(item);
    }
    WorkItem corner;  // last grid row/column: lives in the ragged edge tiles
    corner.coord_x = corner.coord_y = 60 - 8;
    sc.items.push_back(corner);
    WorkItem straddle;  // patch [12, 20) spans the tile boundary at 16
    straddle.coord_x = straddle.coord_y = 12;
    sc.items.push_back(straddle);
    for (std::size_t i = 0; i < sc.items.size(); ++i) {
      sc.items[i].order = static_cast<std::uint32_t>(i);
      sc.items[i].w_plane = static_cast<int>(i % kPlanes);
    }

    sc.subgrids = Array4D<cfloat>(sc.items.size(), 4, 8, 8);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (auto& v : sc.subgrids) v = {dist(rng), dist(rng)};
    return sc;
  }
};

TEST(AdderTest, TiledMatchesRowbandBitForBit) {
  auto sc = TiledScenario::make();
  Array3D<cfloat> tiled = sc.make_grid(), rowband = sc.make_grid();
  add_subgrids_to_grid(sc.params, sc.items, sc.subgrids.cview(),
                       tiled.view());
  add_subgrids_to_grid_rowband(sc.params, sc.items, sc.subgrids.cview(),
                               rowband.view());
  for (std::size_t i = 0; i < tiled.size(); ++i)
    ASSERT_EQ(tiled.data()[i], rowband.data()[i]) << "grid element " << i;
}

TEST(AdderTest, AccumulationIsCanonicalUnderSpanPermutation) {
  // Shuffling the span (items together with their subgrid slots) must not
  // change a single bit of the grid: the tile lists follow WorkItem::order,
  // not span position. This is the invariant that makes tile-sorted and
  // arrival-ordered plans produce identical grids.
  auto sc = TiledScenario::make();
  Array3D<cfloat> reference = sc.make_grid();
  add_subgrids_to_grid(sc.params, sc.items, sc.subgrids.cview(),
                       reference.view());

  std::vector<std::size_t> perm(sc.items.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937 rng(23);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<WorkItem> shuffled_items;
  Array4D<cfloat> shuffled_subgrids(sc.items.size(), 4, 8, 8);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled_items.push_back(sc.items[perm[i]]);
    for (std::size_t p = 0; p < 4; ++p)
      for (std::size_t y = 0; y < 8; ++y)
        for (std::size_t x = 0; x < 8; ++x)
          shuffled_subgrids(i, p, y, x) = sc.subgrids(perm[i], p, y, x);
  }

  Array3D<cfloat> shuffled = sc.make_grid();
  add_subgrids_to_grid(sc.params, shuffled_items, shuffled_subgrids.cview(),
                       shuffled.view());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(reference.data()[i], shuffled.data()[i]) << "grid element "
                                                       << i;
}

TEST(AdderTest, TiledSplitterMatchesDirectPatchCopy) {
  auto sc = TiledScenario::make();
  Array3D<cfloat> grid = sc.make_grid();
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : grid) v = {dist(rng), dist(rng)};

  const TileBinning binning = bin_items_by_tile(sc.params, sc.items);
  Array4D<cfloat> out(sc.items.size(), 4, 8, 8);
  split_subgrids_from_grid(sc.params, sc.items, binning, grid.cview(),
                           out.view());
  for (std::size_t i = 0; i < sc.items.size(); ++i) {
    const auto y0 = static_cast<std::size_t>(sc.items[i].coord_y);
    const auto x0 = static_cast<std::size_t>(sc.items[i].coord_x);
    const auto p0 = static_cast<std::size_t>(sc.items[i].w_plane) * 4;
    for (std::size_t p = 0; p < 4; ++p)
      for (std::size_t y = 0; y < 8; ++y)
        for (std::size_t x = 0; x < 8; ++x)
          ASSERT_EQ(out(i, p, y, x), grid(p0 + p, y0 + y, x0 + x));
  }
}

TEST(AdderTest, TileBinningCoversEachTileItemPairOnce) {
  auto sc = TiledScenario::make();
  const TileBinning binning = bin_items_by_tile(sc.params, sc.items);
  const std::size_t t = binning.tile_size;
  ASSERT_EQ(t, sc.params.adder_tile_size);
  ASSERT_EQ(binning.tiles_per_row,
            (sc.params.grid_size + t - 1) / t);
  ASSERT_EQ(binning.tile_offsets.size(), binning.nr_tiles() + 1);

  // Every (tile, item) intersection appears exactly once, in ascending
  // WorkItem::order within the tile.
  for (std::size_t tile = 0; tile < binning.nr_tiles(); ++tile) {
    const std::size_t ty = tile / binning.tiles_per_row;
    const std::size_t tx = tile % binning.tiles_per_row;
    std::vector<bool> listed(sc.items.size(), false);
    std::uint32_t last_order = 0;
    bool first = true;
    for (std::uint32_t k = binning.tile_offsets[tile];
         k < binning.tile_offsets[tile + 1]; ++k) {
      const std::uint32_t i = binning.item_indices[k];
      ASSERT_LT(i, sc.items.size());
      EXPECT_FALSE(listed[i]) << "item " << i << " listed twice in tile "
                              << tile;
      listed[i] = true;
      if (!first) {
        EXPECT_LE(last_order, sc.items[i].order);
      }
      last_order = sc.items[i].order;
      first = false;
    }
    for (std::size_t i = 0; i < sc.items.size(); ++i) {
      const auto x0 = static_cast<std::size_t>(sc.items[i].coord_x);
      const auto y0 = static_cast<std::size_t>(sc.items[i].coord_y);
      const std::size_t n = sc.params.subgrid_size;
      const bool overlaps = x0 / t <= tx && tx <= (x0 + n - 1) / t &&
                            y0 / t <= ty && ty <= (y0 + n - 1) / t;
      EXPECT_EQ(listed[i], overlaps)
          << "tile " << tile << " item " << i;
    }
  }
}

TEST(ProcessorTest, SortedAndUnsortedPlansAreBitIdentical) {
  auto s = Setup::make(6, 64, 8, 256, 24, 8);
  Array3D<Visibility> vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : vis)
    for (int p = 0; p < 4; ++p) v[p] = {dist(rng), dist(rng)};

  Parameters sorted_params = s.params;
  sorted_params.plan_ordering = PlanOrdering::kTileSorted;
  Parameters arrival_params = s.params;
  arrival_params.plan_ordering = PlanOrdering::kArrival;

  Plan sorted_plan(sorted_params, s.ds.uvw, s.ds.frequencies,
                   s.ds.baselines);
  Plan arrival_plan(arrival_params, s.ds.uvw, s.ds.frequencies,
                    s.ds.baselines);
  ASSERT_EQ(sorted_plan.nr_subgrids(), arrival_plan.nr_subgrids());

  // Gridding: both orderings must produce the same grid, bit for bit.
  Processor sorted_proc(sorted_params), arrival_proc(arrival_params);
  Array3D<cfloat> sorted_grid(4, s.params.grid_size, s.params.grid_size);
  Array3D<cfloat> arrival_grid(4, s.params.grid_size, s.params.grid_size);
  sorted_proc.grid_visibilities(sorted_plan, s.ds.uvw.cview(), vis.cview(),
                                s.aterms.cview(), sorted_grid.view());
  arrival_proc.grid_visibilities(arrival_plan, s.ds.uvw.cview(), vis.cview(),
                                 s.aterms.cview(), arrival_grid.view());
  for (std::size_t i = 0; i < sorted_grid.size(); ++i)
    ASSERT_EQ(sorted_grid.data()[i], arrival_grid.data()[i])
        << "grid element " << i;

  // Degridding from the common grid must also agree bit for bit.
  Array3D<Visibility> sorted_vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                 s.ds.nr_channels());
  Array3D<Visibility> arrival_vis(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                                  s.ds.nr_channels());
  sorted_proc.degrid_visibilities(sorted_plan, s.ds.uvw.cview(),
                                  sorted_grid.cview(), s.aterms.cview(),
                                  sorted_vis.view());
  arrival_proc.degrid_visibilities(arrival_plan, s.ds.uvw.cview(),
                                   sorted_grid.cview(), s.aterms.cview(),
                                   arrival_vis.view());
  for (std::size_t i = 0; i < sorted_vis.size(); ++i)
    for (int p = 0; p < 4; ++p)
      ASSERT_EQ(sorted_vis.data()[i][p], arrival_vis.data()[i][p])
          << "visibility " << i << " pol " << p;
}

// --- accounting -------------------------------------------------------------------

TEST(AccountingTest, GridderRhoIsSeventeenInTheLimit) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  const OpCounts c = gridder_op_counts(s.plan);
  // rho -> 17 plus the amortized geometry terms; must sit close to 17.
  EXPECT_GT(c.rho(), 17.0);
  EXPECT_LT(c.rho(), 18.5);
  EXPECT_EQ(c.visibilities, s.plan.nr_planned_visibilities());
}

TEST(AccountingTest, KernelsAreComputeBound) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  // Operational intensity in device memory far exceeds any machine ridge
  // point (paper: "On all architectures, both kernels are compute bound").
  EXPECT_GT(gridder_op_counts(s.plan).intensity_dev(), 20.0);
  EXPECT_GT(degridder_op_counts(s.plan).intensity_dev(), 20.0);
}

TEST(AccountingTest, SharedIntensityNearOneOpPerByte) {
  auto s = Setup::make(8, 64, 8, 256, 24, 8);
  const double gi = gridder_op_counts(s.plan).intensity_shared();
  const double di = degridder_op_counts(s.plan).intensity_shared();
  // Fig 13: both kernels sit near ~1 op/byte of shared traffic, with the
  // degridder lower than the gridder.
  EXPECT_GT(gi, 0.5);
  EXPECT_LT(gi, 2.0);
  EXPECT_LT(di, gi);
}

TEST(AccountingTest, FftCountsScaleWithSubgrids) {
  auto s1 = Setup::make(4, 16, 4, 256, 24, 8);
  auto s2 = Setup::make(8, 64, 8, 256, 24, 8);
  EXPECT_GT(s2.plan.nr_subgrids(), s1.plan.nr_subgrids());
  EXPECT_GT(subgrid_fft_op_counts(s2.plan).ops(),
            subgrid_fft_op_counts(s1.plan).ops());
}

TEST(AccountingTest, AdderMovesThreeTimesTheSplitterTraffic) {
  auto s = Setup::make(6, 32, 4, 256, 24, 8);
  const auto a = adder_op_counts(s.plan);
  const auto sp = splitter_op_counts(s.plan);
  EXPECT_EQ(a.dev_bytes, sp.dev_bytes / 2 * 3);
  EXPECT_GT(a.add, 0u);
  EXPECT_EQ(sp.ops(), 0u);
}

}  // namespace
