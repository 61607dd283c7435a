// Tests for the W-projection baseline: kernel construction, gridding and
// degridding accuracy against the direct predictor, and agreement with IDG.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "idg/image.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"
#include "sim/skymodel.hpp"
#include "wproj/gridder.hpp"
#include "wproj/wkernel.hpp"

namespace {

using namespace idg;
using namespace idg::wproj;

WKernelConfig small_config(std::size_t support = 8) {
  WKernelConfig cfg;
  cfg.support = support;
  cfg.oversampling = 8;
  cfg.nr_w_planes = 9;
  cfg.w_max = 200.0;
  cfg.image_size = 0.02;
  return cfg;
}

// --- kernel construction -------------------------------------------------------

TEST(WKernelTest, ZeroWKernelIsRealAndPeaked) {
  auto cfg = small_config();
  cfg.nr_w_planes = 1;
  cfg.w_max = 0.0;
  WKernelSet set(cfg);
  const std::size_t os = set.oversampled_size();
  const cfloat center = set.plane(0)[os / 2 * os + os / 2];
  // FT of a real, even taper: real positive peak, tiny imaginary part.
  EXPECT_GT(center.real(), 0.0f);
  EXPECT_NEAR(center.imag() / center.real(), 0.0f, 1e-3f);
  // Peak must be the maximum.
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < os * os; ++i)
    max_abs = std::max(max_abs, std::abs(set.plane(0)[i]));
  EXPECT_NEAR(max_abs, std::abs(center), 1e-5f);
}

TEST(WKernelTest, KernelSumApproximatesTaperCenter) {
  // Sum over the *cell-spaced* kernel taps equals the image-domain screen at
  // the phase centre: taper(0) * exp(0) = 1 (IDG normalization convention).
  auto cfg = small_config(16);
  cfg.nr_w_planes = 1;
  cfg.w_max = 0.0;
  WKernelSet set(cfg);
  std::complex<double> sum{};
  const int half = static_cast<int>(cfg.support) / 2;
  for (int dv = -half; dv < half; ++dv)
    for (int du = -half; du < half; ++du)
      sum += std::complex<double>(set.at(0, dv, 0, du, 0));
  EXPECT_NEAR(sum.real(), 1.0, 0.02);
  EXPECT_NEAR(sum.imag(), 0.0, 0.01);
}

TEST(WKernelTest, LargerWMeansWiderKernel) {
  auto cfg = small_config(16);
  cfg.nr_w_planes = 3;
  cfg.w_max = 3000.0;
  WKernelSet set(cfg);
  // Energy fraction outside the central 3x3 cells grows with |w|.
  auto spread = [&](int plane) {
    double inner = 0.0, total = 0.0;
    const int half = static_cast<int>(cfg.support) / 2;
    for (int dv = -half; dv < half; ++dv) {
      for (int du = -half; du < half; ++du) {
        const double a = std::abs(std::complex<double>(
            set.at(plane, dv, 0, du, 0)));
        total += a * a;
        if (std::abs(dv) <= 1 && std::abs(du) <= 1) inner += a * a;
      }
    }
    return 1.0 - inner / total;
  };
  EXPECT_GT(spread(0), spread(1));  // plane 0: w = -w_max; plane 1: w = 0
  EXPECT_GT(spread(2), spread(1));
}

TEST(WKernelTest, PlaneLookupClampsAndCenters) {
  auto cfg = small_config();
  WKernelSet set(cfg);
  EXPECT_EQ(set.plane_of(0.0), 4);         // centre of 9 planes
  EXPECT_EQ(set.plane_of(-1e9), 0);        // clamped
  EXPECT_EQ(set.plane_of(1e9), 8);
  EXPECT_EQ(set.plane_of(-cfg.w_max), 0);
  EXPECT_EQ(set.plane_of(cfg.w_max), 8);
}

TEST(WKernelTest, StorageGrowsQuadraticallyWithSupport) {
  auto a = small_config(8);
  auto b = small_config(16);
  a.nr_w_planes = b.nr_w_planes = 2;
  WKernelSet sa(a), sb(b);
  EXPECT_GT(sb.storage_bytes(), 3 * sa.storage_bytes());
  EXPECT_GT(sa.construction_seconds(), 0.0);
}

TEST(WKernelTest, InvalidConfigThrows) {
  auto cfg = small_config();
  cfg.support = 7;  // odd
  EXPECT_THROW(WKernelSet{cfg}, Error);
  cfg = small_config();
  cfg.image_size = 0.0;
  EXPECT_THROW(WKernelSet{cfg}, Error);
}

// --- end-to-end accuracy --------------------------------------------------------

struct WprojFixture {
  sim::Dataset ds;
  WprojParameters params;
  /// The grid's image transforms: W-projection shares IDG's PSWF taper
  /// correction (the Parameters default).
  Parameters image_params;

  static WprojFixture make(std::size_t support) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 32;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    auto ds = sim::make_benchmark_dataset_no_vis(cfg);

    // Max |w| in wavelengths over the dataset.
    double w_max = 0.0;
    for (const auto& c : ds.uvw)
      w_max = std::max(w_max, std::abs(static_cast<double>(c.w)));
    w_max /= ds.obs.min_wavelength();

    WprojParameters params;
    params.grid_size = cfg.grid_size;
    params.image_size = ds.image_size;
    params.kernel.support = support;
    params.kernel.oversampling = 8;
    params.kernel.nr_w_planes = 31;
    params.kernel.w_max = w_max * 1.01;
    Parameters image_params;
    image_params.grid_size = params.grid_size;
    image_params.image_size = params.image_size;
    return {std::move(ds), params, image_params};
  }
};

TEST(WprojAccuracyTest, DegriddingMatchesDirectPrediction) {
  auto f = WprojFixture::make(16);
  const double dl =
      f.params.image_size / static_cast<double>(f.params.grid_size);
  sim::SkyModel sky = {
      sim::PointSource{static_cast<float>(18 * dl), static_cast<float>(-9 * dl), 1.0f},
      sim::PointSource{0.0f, 0.0f, 0.5f},
  };
  auto expected =
      sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  auto model =
      sim::render_sky_image(sky, f.params.grid_size, f.params.image_size);
  auto grid = model_image_to_grid(model, f.image_params);

  WprojGridder gridder(f.params);
  Array3D<Visibility> predicted(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                                f.ds.nr_channels());
  gridder.degrid_visibilities(f.ds.uvw.cview(), grid.cview(),
                              f.ds.frequencies, predicted.view());
  EXPECT_EQ(gridder.nr_skipped(), 0u);

  const double rms = sim::rms_amplitude(expected);
  EXPECT_LT(sim::max_abs_difference(expected, predicted), 0.05 * rms);
}

TEST(WprojAccuracyTest, GriddingRecoversPointSource) {
  auto f = WprojFixture::make(16);
  const double dl =
      f.params.image_size / static_cast<double>(f.params.grid_size);
  const int px = 20, py = 15;
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(px * dl),
                                        static_cast<float>(py * dl), 2.0f}};
  auto vis =
      sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  WprojGridder gridder(f.params);
  Array3D<cfloat> grid(4, f.params.grid_size, f.params.grid_size);
  gridder.grid_visibilities(f.ds.uvw.cview(), vis.cview(), f.ds.frequencies,
                            grid.view());
  EXPECT_EQ(gridder.nr_skipped(), 0u);

  auto image = make_dirty_image(grid, f.ds.nr_visibilities(), f.image_params);
  const std::size_t cx = f.params.grid_size / 2 + px;
  const std::size_t cy = f.params.grid_size / 2 + py;
  EXPECT_NEAR(image(0, cy, cx).real(), 2.0f, 0.1f);
}

TEST(WprojAccuracyTest, SmallSupportDegradesAccuracy) {
  // Shrinking N_W must monotonically hurt the prediction error — the
  // trade-off that makes Fig 16 interesting.
  auto run = [](std::size_t support) {
    auto f = WprojFixture::make(support);
    const double dl =
        f.params.image_size / static_cast<double>(f.params.grid_size);
    sim::SkyModel sky = {sim::PointSource{static_cast<float>(40 * dl),
                                          static_cast<float>(35 * dl), 1.0f}};
    auto expected =
        sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);
    auto model =
        sim::render_sky_image(sky, f.params.grid_size, f.params.image_size);
    auto grid = model_image_to_grid(model, f.image_params);
    WprojGridder gridder(f.params);
    Array3D<Visibility> predicted(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                                  f.ds.nr_channels());
    gridder.degrid_visibilities(f.ds.uvw.cview(), grid.cview(),
                                f.ds.frequencies, predicted.view());
    return sim::max_abs_difference(expected, predicted);
  };
  const double err4 = run(4);
  const double err16 = run(16);
  EXPECT_GT(err4, 2.0 * err16);
}

// IDG and WPG must produce consistent grids: same normalization, same
// taper convention, comparable dirty images.
TEST(WprojVsIdgTest, DirtyImagesAgree) {
  auto f = WprojFixture::make(16);
  const double dl =
      f.params.image_size / static_cast<double>(f.params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(12 * dl),
                                        static_cast<float>(-7 * dl), 1.0f}};
  auto vis =
      sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  // WPG image.
  WprojGridder wpg(f.params);
  Array3D<cfloat> grid_w(4, f.params.grid_size, f.params.grid_size);
  wpg.grid_visibilities(f.ds.uvw.cview(), vis.cview(), f.ds.frequencies,
                        grid_w.view());
  auto image_w =
      make_dirty_image(grid_w, f.ds.nr_visibilities(), f.image_params);

  // IDG image of the same data.
  Parameters ip;
  ip.grid_size = f.params.grid_size;
  ip.subgrid_size = 32;
  ip.image_size = f.params.image_size;
  ip.nr_stations = 6;
  ip.kernel_size = 16;
  Plan plan(ip, f.ds.uvw, f.ds.frequencies, f.ds.baselines);
  auto aterms = sim::make_identity_aterms(1, 6, ip.subgrid_size);
  Processor proc(ip);
  Array3D<cfloat> grid_i(4, ip.grid_size, ip.grid_size);
  proc.grid_visibilities(plan, f.ds.uvw.cview(), vis.cview(), aterms.cview(),
                         grid_i.view());
  auto image_i =
      make_dirty_image(grid_i, plan.nr_planned_visibilities(), ip);

  const std::size_t cx = f.params.grid_size / 2 + 12;
  const std::size_t cy = f.params.grid_size / 2 - 7;
  EXPECT_NEAR(image_w(0, cy, cx).real(), image_i(0, cy, cx).real(), 0.05f);
  EXPECT_NEAR(image_w(0, cy, cx).real(), 1.0f, 0.08f);
}

TEST(WprojTest, OpCountsScaleWithSupportSquared) {
  auto f8 = WprojFixture::make(8);
  auto f16 = WprojFixture::make(16);
  WprojGridder g8(f8.params), g16(f16.params);
  const auto c8 = g8.op_counts(1000);
  const auto c16 = g16.op_counts(1000);
  EXPECT_NEAR(static_cast<double>(c16.fma) / c8.fma, 4.0, 0.01);
  // WPG intensity is low (bandwidth-hungry), far below IDG's.
  EXPECT_LT(c8.intensity_dev(), 1.0);
}

}  // namespace
