// Tests for the telescope simulator substrate: layouts, uvw geometry,
// sky models, A-term screens, and the direct (ground-truth) predictor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include <cmath>
#include <complex>
#include <numbers>

#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/layout.hpp"
#include "sim/observation.hpp"
#include "sim/predict.hpp"
#include "sim/skymodel.hpp"

namespace {

using namespace idg;
using namespace idg::sim;

// --- layouts ----------------------------------------------------------------

TEST(LayoutTest, Ska1LowHasRequestedStationCount) {
  for (int n : {2, 10, 150}) {
    EXPECT_EQ(make_ska1_low_layout(n).size(), static_cast<std::size_t>(n));
  }
}

TEST(LayoutTest, Ska1LowCoreFractionIsDense) {
  auto layout = make_ska1_low_layout(200, 500.0, 40e3, 0.5);
  int within_core = 0;
  for (const auto& s : layout) {
    if (std::hypot(s.east, s.north) <= 500.0 * 1.01) ++within_core;
  }
  // Half the stations should sit inside the core radius.
  EXPECT_NEAR(within_core, 100, 2);
}

TEST(LayoutTest, Ska1LowReachesMaxRadius) {
  auto layout = make_ska1_low_layout(150, 500.0, 40e3);
  double max_r = 0.0;
  for (const auto& s : layout) max_r = std::max(max_r, std::hypot(s.east, s.north));
  EXPECT_GT(max_r, 30e3);   // spiral arms reach out
  EXPECT_LT(max_r, 50e3);   // ... but not beyond max_radius + jitter
}

TEST(LayoutTest, DeterministicForFixedSeed) {
  auto a = make_ska1_low_layout(50, 500.0, 40e3, 0.5, 7);
  auto b = make_ska1_low_layout(50, 500.0, 40e3, 0.5, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].east, b[i].east);
    EXPECT_EQ(a[i].north, b[i].north);
  }
}

TEST(LayoutTest, RandomLayoutWithinDisc) {
  auto layout = make_random_layout(100, 1000.0, 3);
  for (const auto& s : layout) EXPECT_LE(std::hypot(s.east, s.north), 1000.0);
}

TEST(LayoutTest, LofarLikeHasSuperterp) {
  auto layout = make_lofar_like_layout(40);
  EXPECT_EQ(layout.size(), 40u);
  int close = 0;
  for (const auto& s : layout)
    if (std::hypot(s.east, s.north) < 200.0) ++close;
  EXPECT_GE(close, 6);
}

TEST(LayoutTest, MaxBaselineLengthMatchesBruteForce) {
  StationLayout layout = {{0, 0}, {3, 4}, {-3, -4}};
  EXPECT_DOUBLE_EQ(max_baseline_length(layout), 10.0);
}

TEST(LayoutTest, InvalidArgumentsThrow) {
  EXPECT_THROW(make_ska1_low_layout(1), Error);
  EXPECT_THROW(make_ska1_low_layout(10, -5.0), Error);
  EXPECT_THROW(make_random_layout(10, 0.0), Error);
}

// --- baselines & uvw ----------------------------------------------------------

TEST(ObservationTest, BaselineCountIsNChoose2) {
  for (int n : {2, 3, 10, 150}) {
    auto bl = make_baselines(n);
    EXPECT_EQ(bl.size(), static_cast<std::size_t>(n) * (n - 1) / 2);
  }
}

TEST(ObservationTest, BaselinesAreOrderedPairs) {
  auto bl = make_baselines(5);
  for (const auto& b : bl) EXPECT_LT(b.station1, b.station2);
}

TEST(ObservationTest, UvwAntisymmetricUnderStationSwap) {
  auto layout = make_ska1_low_layout(4);
  Observation obs;
  obs.nr_timesteps = 3;
  std::vector<Baseline> fwd = {{0, 1}};
  std::vector<Baseline> rev = {{1, 0}};
  auto uvw_f = compute_uvw(layout, fwd, obs);
  auto uvw_r = compute_uvw(layout, rev, obs);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_FLOAT_EQ(uvw_f(0, t).u, -uvw_r(0, t).u);
    EXPECT_FLOAT_EQ(uvw_f(0, t).v, -uvw_r(0, t).v);
    EXPECT_FLOAT_EQ(uvw_f(0, t).w, -uvw_r(0, t).w);
  }
}

TEST(ObservationTest, UvwMagnitudeBoundedByBaselineLength) {
  auto layout = make_ska1_low_layout(10);
  Observation obs;
  obs.nr_timesteps = 16;
  auto baselines = make_baselines(10);
  auto uvw = compute_uvw(layout, baselines, obs);
  for (std::size_t b = 0; b < baselines.size(); ++b) {
    const auto& s1 = layout[static_cast<std::size_t>(baselines[b].station1)];
    const auto& s2 = layout[static_cast<std::size_t>(baselines[b].station2)];
    const double len = std::hypot(s1.east - s2.east, s1.north - s2.north);
    for (std::size_t t = 0; t < 16; ++t) {
      const UVW& c = uvw(b, t);
      const double mag = std::sqrt(static_cast<double>(c.u) * c.u +
                                   static_cast<double>(c.v) * c.v +
                                   static_cast<double>(c.w) * c.w);
      EXPECT_LE(mag, len * 1.0001) << "b=" << b << " t=" << t;
    }
  }
}

TEST(ObservationTest, UvwTracesArcOverTime) {
  // Over an hour, the uv point must move (earth rotation).
  auto layout = make_ska1_low_layout(3);
  Observation obs;
  obs.nr_timesteps = 2;
  obs.integration_time_s = 3600.0;
  auto baselines = make_baselines(3);
  auto uvw = compute_uvw(layout, baselines, obs);
  const UVW d = uvw(0, 1) - uvw(0, 0);
  EXPECT_GT(std::abs(d.u) + std::abs(d.v), 1.0);
}

TEST(ObservationTest, HourAngleAdvancesAtSiderealRate) {
  Observation obs;
  obs.integration_time_s = 86164.1;  // one sidereal day
  EXPECT_NEAR(obs.hour_angle(1) - obs.hour_angle(0), 2.0 * std::numbers::pi,
              1e-9);
}

TEST(ObservationTest, FitImageSizeContainsAllUv) {
  BenchmarkConfig cfg;
  cfg.nr_stations = 12;
  cfg.nr_timesteps = 32;
  auto ds = make_benchmark_dataset_no_vis(cfg);
  // Every uv point, at the highest frequency, must map inside the grid.
  const double du = 1.0 / ds.image_size;  // cell size in wavelengths
  const double half_extent = 0.5 * static_cast<double>(ds.grid_size) * du;
  const double lambda_min = ds.obs.min_wavelength();
  for (std::size_t b = 0; b < ds.nr_baselines(); ++b) {
    for (std::size_t t = 0; t < ds.nr_timesteps(); ++t) {
      const UVW& c = ds.uvw(b, t);
      EXPECT_LT(std::abs(c.u) / lambda_min, half_extent);
      EXPECT_LT(std::abs(c.v) / lambda_min, half_extent);
    }
  }
}

// --- sky model ----------------------------------------------------------------

TEST(SkyModelTest, BrightnessMatrixFromStokes) {
  PointSource s;
  s.stokes_i = 2.0f;
  s.stokes_q = 0.5f;
  s.stokes_u = 0.25f;
  s.stokes_v = 0.125f;
  auto b = s.brightness();
  EXPECT_FLOAT_EQ(b.xx.real(), 2.5f);
  EXPECT_FLOAT_EQ(b.yy.real(), 1.5f);
  EXPECT_FLOAT_EQ(b.xy.real(), 0.25f);
  EXPECT_FLOAT_EQ(b.xy.imag(), 0.125f);
  EXPECT_FLOAT_EQ(b.yx.imag(), -0.125f);
}

TEST(SkyModelTest, UnpolarizedSourceIsDiagonal) {
  PointSource s;
  s.stokes_i = 1.0f;
  auto b = s.brightness();
  EXPECT_EQ(b.xy, cfloat{});
  EXPECT_EQ(b.yx, cfloat{});
  EXPECT_EQ(b.xx, b.yy);
}

TEST(SkyModelTest, RandomSkyIsWithinFov) {
  const double image_size = 0.02;
  auto sky = make_random_sky(50, image_size, 0.6);
  EXPECT_EQ(sky.size(), 50u);
  for (const auto& s : sky) {
    EXPECT_LE(std::abs(s.l), 0.3 * image_size);
    EXPECT_LE(std::abs(s.m), 0.3 * image_size);
    EXPECT_GE(s.stokes_i, 0.1f);
    EXPECT_LE(s.stokes_i, 1.0f);
  }
}

TEST(SkyModelTest, RenderPlacesSourceAtCorrectPixel) {
  SkyModel sky;
  PointSource s;
  s.l = 0.0f;
  s.m = 0.0f;
  s.stokes_i = 3.0f;
  sky.push_back(s);
  auto image = render_sky_image(sky, 64, 0.02);
  EXPECT_FLOAT_EQ(image(0, 32, 32).real(), 3.0f);  // XX at center
  EXPECT_FLOAT_EQ(image(3, 32, 32).real(), 3.0f);  // YY at center
  EXPECT_EQ(image(1, 32, 32), cfloat{});           // XY zero
}

TEST(SkyModelTest, RenderSkipsOutOfFovSources) {
  SkyModel sky;
  PointSource s;
  s.l = 1.0f;  // far outside a 0.02 rad field
  sky.push_back(s);
  auto image = render_sky_image(sky, 32, 0.02);
  double total = 0.0;
  for (auto v : image) total += std::abs(v);
  EXPECT_EQ(total, 0.0);
}

// --- A-terms -------------------------------------------------------------------

TEST(ATermTest, IdentityCubeIsIdentityEverywhere) {
  auto cube = make_identity_aterms(2, 3, 8);
  EXPECT_EQ(cube.dims(), (std::array<std::size_t, 4>{2, 3, 8, 8}));
  for (std::size_t i = 0; i < cube.size(); ++i) {
    EXPECT_EQ(cube.data()[i].xx, cfloat(1.0f, 0.0f));
    EXPECT_EQ(cube.data()[i].xy, cfloat{});
  }
}

TEST(ATermTest, PhaseScreenIsUnitary) {
  auto cube = make_phase_screen_aterms(2, 3, 16, 0.02, 1.0, 5);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    const Jones& j = cube.data()[i];
    EXPECT_NEAR(std::abs(j.xx), 1.0f, 1e-5f);
    EXPECT_EQ(j.xy, cfloat{});
    EXPECT_EQ(j.xx, j.yy);
  }
}

TEST(ATermTest, GaussianBeamPeaksAtCenter) {
  auto cube = make_gaussian_beam_aterms(1, 1, 32, 0.02, 0.01);
  float center = std::abs(cube(0, 0, 16, 16).xx);
  float edge = std::abs(cube(0, 0, 0, 0).xx);
  EXPECT_NEAR(center, 1.0f, 1e-5f);
  EXPECT_LT(edge, center);
}

TEST(ATermTest, SampleAtermReadsCenterPixel) {
  auto cube = make_gaussian_beam_aterms(1, 2, 32, 0.02, 0.01);
  Jones j = sample_aterm(cube, 0, 1, 0.0f, 0.0f, 0.02);
  EXPECT_NEAR(std::abs(j.xx), 1.0f, 1e-5f);
}

// --- direct predictor ------------------------------------------------------------

TEST(PredictTest, SourceAtPhaseCenterGivesConstantVisibility) {
  auto layout = make_ska1_low_layout(4);
  Observation obs;
  obs.nr_timesteps = 4;
  obs.nr_channels = 2;
  auto baselines = make_baselines(4);
  auto uvw = compute_uvw(layout, baselines, obs);

  SkyModel sky = {PointSource{0.0f, 0.0f, 2.5f}};
  auto vis = predict_visibilities(sky, uvw, baselines, obs);
  for (std::size_t b = 0; b < baselines.size(); ++b)
    for (std::size_t t = 0; t < 4; ++t)
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_NEAR(vis(b, t, c).xx.real(), 2.5f, 1e-4f);
        EXPECT_NEAR(vis(b, t, c).xx.imag(), 0.0f, 1e-4f);
      }
}

TEST(PredictTest, ConjugateSymmetryForRealSky) {
  // Swapping the stations of a baseline conjugates the visibility (for an
  // unpolarized real sky the matrix is Hermitian: V(-uvw) = V(uvw)^H).
  auto layout = make_ska1_low_layout(3);
  Observation obs;
  obs.nr_timesteps = 2;
  obs.nr_channels = 1;
  std::vector<Baseline> fwd = {{0, 2}};
  std::vector<Baseline> rev = {{2, 0}};
  auto uvw_f = compute_uvw(layout, fwd, obs);
  auto uvw_r = compute_uvw(layout, rev, obs);

  SkyModel sky = {PointSource{0.001f, -0.0005f, 1.5f}};
  auto vis_f = predict_visibilities(sky, uvw_f, fwd, obs);
  auto vis_r = predict_visibilities(sky, uvw_r, rev, obs);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_NEAR(vis_f(0, t, 0).xx.real(), vis_r(0, t, 0).xx.real(), 1e-3f);
    EXPECT_NEAR(vis_f(0, t, 0).xx.imag(), -vis_r(0, t, 0).xx.imag(), 1e-3f);
  }
}

TEST(PredictTest, TwoSourcesSuperpose) {
  auto layout = make_ska1_low_layout(3);
  Observation obs;
  obs.nr_timesteps = 2;
  obs.nr_channels = 2;
  auto baselines = make_baselines(3);
  auto uvw = compute_uvw(layout, baselines, obs);

  SkyModel s1 = {PointSource{0.001f, 0.0f, 1.0f}};
  SkyModel s2 = {PointSource{-0.002f, 0.001f, 0.5f}};
  SkyModel both = {s1[0], s2[0]};
  auto v1 = predict_visibilities(s1, uvw, baselines, obs);
  auto v2 = predict_visibilities(s2, uvw, baselines, obs);
  auto vb = predict_visibilities(both, uvw, baselines, obs);
  for (std::size_t i = 0; i < vb.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      EXPECT_NEAR(std::abs(vb.data()[i][p] -
                           (v1.data()[i][p] + v2.data()[i][p])),
                  0.0f, 2e-4f);
    }
  }
}

TEST(PredictTest, IdentityATermsDoNotChangeVisibilities) {
  auto layout = make_ska1_low_layout(3);
  Observation obs;
  obs.nr_timesteps = 4;
  obs.nr_channels = 2;
  auto baselines = make_baselines(3);
  auto uvw = compute_uvw(layout, baselines, obs);
  SkyModel sky = {PointSource{0.001f, 0.0005f, 1.0f}};

  auto plain = predict_visibilities(sky, uvw, baselines, obs);
  auto cube = make_identity_aterms(2, 3, 16);
  ATermContext ctx{&cube, 2, 0.02};
  auto with = predict_visibilities(sky, uvw, baselines, obs, ctx);
  EXPECT_LT(max_abs_difference(plain, with), 1e-6);
}

TEST(PredictTest, PhaseScreenChangesVisibilities) {
  auto layout = make_ska1_low_layout(3);
  Observation obs;
  obs.nr_timesteps = 4;
  obs.nr_channels = 2;
  auto baselines = make_baselines(3);
  auto uvw = compute_uvw(layout, baselines, obs);
  SkyModel sky = {PointSource{0.002f, 0.0f, 1.0f}};

  auto plain = predict_visibilities(sky, uvw, baselines, obs);
  auto cube = make_phase_screen_aterms(2, 3, 16, 0.02, 1.5, 11);
  ATermContext ctx{&cube, 2, 0.02};
  auto with = predict_visibilities(sky, uvw, baselines, obs, ctx);
  EXPECT_GT(max_abs_difference(plain, with), 1e-3);
  // Unitary screens preserve amplitude for a single source.
  EXPECT_NEAR(rms_amplitude(plain), rms_amplitude(with), 1e-4);
}

// --- dataset ---------------------------------------------------------------------

TEST(DatasetTest, DimensionsMatchConfig) {
  BenchmarkConfig cfg;
  cfg.nr_stations = 8;
  cfg.nr_timesteps = 16;
  cfg.nr_channels = 4;
  auto ds = make_benchmark_dataset(cfg);
  EXPECT_EQ(ds.nr_baselines(), 28u);
  EXPECT_EQ(ds.nr_timesteps(), 16u);
  EXPECT_EQ(ds.nr_channels(), 4u);
  EXPECT_EQ(ds.nr_visibilities(), 28u * 16 * 4);
  EXPECT_EQ(ds.visibilities.size(), ds.nr_baselines() * 16 * 4);
  EXPECT_GT(ds.image_size, 0.0);
}

TEST(DatasetTest, FrequenciesAreAscending) {
  BenchmarkConfig cfg;
  cfg.nr_stations = 4;
  auto ds = make_benchmark_dataset_no_vis(cfg);
  for (std::size_t c = 1; c < ds.nr_channels(); ++c)
    EXPECT_GT(ds.frequencies[c], ds.frequencies[c - 1]);
}

TEST(DatasetTest, NoVisVariantIsZeroFilled) {
  BenchmarkConfig cfg;
  cfg.nr_stations = 4;
  cfg.nr_timesteps = 8;
  auto ds = make_benchmark_dataset_no_vis(cfg);
  for (const auto& v : ds.visibilities) EXPECT_EQ(v.norm2(), 0.0f);
}

TEST(DatasetTest, PaperConfigMatchesPublication) {
  auto cfg = BenchmarkConfig::paper();
  EXPECT_EQ(cfg.nr_stations, 150);
  EXPECT_EQ(cfg.nr_timesteps, 8192);
  EXPECT_EQ(cfg.nr_channels, 16);
  EXPECT_EQ(cfg.grid_size, 2048u);
  EXPECT_EQ(cfg.subgrid_size, 24u);
  EXPECT_EQ(cfg.aterm_interval, 256);
  // 150 stations -> 11175 baselines, as stated in §VI-A.
  EXPECT_EQ(make_baselines(cfg.nr_stations).size(), 11175u);
}

TEST(DatasetTest, InvalidConfigThrows) {
  BenchmarkConfig cfg;
  cfg.grid_size = 16;
  cfg.subgrid_size = 24;
  EXPECT_THROW(make_benchmark_dataset(cfg), Error);
}

TEST(DatasetTest, ApplyRfiFlagsIsDeterministicAndSeedDependent) {
  BenchmarkConfig cfg;
  cfg.nr_stations = 5;
  cfg.nr_timesteps = 16;
  auto a = make_benchmark_dataset(cfg);
  auto b = make_benchmark_dataset(cfg);
  auto c = make_benchmark_dataset(cfg);
  EXPECT_EQ(apply_rfi_flags(a, 0.1, 3), apply_rfi_flags(b, 0.1, 3));
  for (std::size_t i = 0; i < a.flags.size(); ++i) {
    ASSERT_EQ(a.flags.data()[i], b.flags.data()[i]);
  }
  apply_rfi_flags(c, 0.1, 4);
  bool differs = false;
  for (std::size_t i = 0; i < a.flags.size(); ++i) {
    if (a.flags.data()[i] != c.flags.data()[i]) differs = true;
  }
  EXPECT_TRUE(differs);
  // fraction 0 allocates the (all-clear) mask but flags nothing.
  Dataset d = make_benchmark_dataset(cfg);
  EXPECT_EQ(apply_rfi_flags(d, 0.0, 1), 0u);
  EXPECT_EQ(d.flags.size(), d.nr_visibilities());
}

}  // namespace
