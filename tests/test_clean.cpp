// Tests for the CLEAN deconvolution substrate: minor-cycle behaviour and
// the full major-cycle imaging loop with IDG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "clean/hogbom.hpp"
#include "clean/major_cycle.hpp"
#include "common/error.hpp"
#include "idg/image.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "sim/predict.hpp"

namespace {

using namespace idg;
using namespace idg::clean;

// Builds a synthetic [4][n][n] cube with given Stokes-I pixel values.
Array3D<cfloat> cube_with_peak(std::size_t n, std::size_t y, std::size_t x,
                               float flux) {
  Array3D<cfloat> cube(kNrPolarizations, n, n);
  cube(0, y, x) = {flux, 0.0f};
  cube(3, y, x) = {flux, 0.0f};
  return cube;
}

// A delta-function PSF (unit peak at centre, zero elsewhere).
Array3D<cfloat> delta_psf(std::size_t n) {
  return cube_with_peak(n, n / 2, n / 2, 1.0f);
}

TEST(HogbomTest, SingleDeltaCleansCompletely) {
  const std::size_t n = 32;
  auto residual = cube_with_peak(n, 10, 20, 2.0f);
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);

  CleanConfig cfg;
  cfg.gain = 1.0f;  // full subtraction in one step with a delta PSF
  cfg.max_iterations = 5;
  auto result = hogbom_clean(residual.view(), psf.cview(), model.view(), cfg);

  EXPECT_EQ(result.iterations, 1);
  EXPECT_NEAR(result.final_peak, 0.0f, 1e-6f);
  EXPECT_NEAR(model(0, 10, 20).real(), 2.0f, 1e-6f);
  EXPECT_NEAR(stokes_i(residual.cview(), 10, 20), 0.0f, 1e-6f);
}

TEST(HogbomTest, GainControlsSubtractionRate) {
  const std::size_t n = 16;
  auto residual = cube_with_peak(n, 8, 8, 1.0f);
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);

  CleanConfig cfg;
  cfg.gain = 0.5f;
  cfg.max_iterations = 1;
  hogbom_clean(residual.view(), psf.cview(), model.view(), cfg);
  EXPECT_NEAR(stokes_i(residual.cview(), 8, 8), 0.5f, 1e-6f);
  EXPECT_NEAR(model(0, 8, 8).real(), 0.5f, 1e-6f);
}

TEST(HogbomTest, ThresholdStopsIteration) {
  const std::size_t n = 16;
  auto residual = cube_with_peak(n, 4, 4, 0.1f);
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);

  CleanConfig cfg;
  cfg.threshold = 0.5f;
  auto result = hogbom_clean(residual.view(), psf.cview(), model.view(), cfg);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_NEAR(result.final_peak, 0.1f, 1e-6f);
}

TEST(HogbomTest, TwoSourcesFoundInBrightnessOrder) {
  const std::size_t n = 32;
  auto residual = cube_with_peak(n, 5, 6, 1.0f);
  residual(0, 20, 25) = {3.0f, 0.0f};
  residual(3, 20, 25) = {3.0f, 0.0f};
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);

  CleanConfig cfg;
  cfg.gain = 1.0f;
  cfg.max_iterations = 2;
  auto result = hogbom_clean(residual.view(), psf.cview(), model.view(), cfg);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[0].y, 20u);
  EXPECT_EQ(result.components[0].x, 25u);
  EXPECT_EQ(result.components[1].y, 5u);
  EXPECT_EQ(result.components[1].x, 6u);
}

TEST(HogbomTest, NegativeArtifactsAreCleaned) {
  const std::size_t n = 16;
  auto residual = cube_with_peak(n, 3, 3, -2.0f);
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);

  CleanConfig cfg;
  cfg.gain = 1.0f;
  cfg.max_iterations = 1;
  auto result = hogbom_clean(residual.view(), psf.cview(), model.view(), cfg);
  EXPECT_EQ(result.iterations, 1);
  EXPECT_NEAR(model(0, 3, 3).real(), -2.0f, 1e-6f);
}

TEST(HogbomTest, InvalidGainThrows) {
  const std::size_t n = 8;
  auto residual = delta_psf(n);
  auto psf = delta_psf(n);
  Array3D<cfloat> model(kNrPolarizations, n, n);
  CleanConfig cfg;
  cfg.gain = 0.0f;
  EXPECT_THROW(
      hogbom_clean(residual.view(), psf.cview(), model.view(), cfg), Error);
}

// --- bit-identity with the serial loops -----------------------------------------

/// Stokes I as the serial loop reads it (a copy of stokes_i, inlinable here
/// as it was beside that loop).
float serial_stokes_i(ArrayView<const cfloat, 3> cube, std::size_t y,
                      std::size_t x) {
  return 0.5f * (cube(0, y, x).real() + cube(3, y, x).real());
}

/// Högbom's minor cycle as a serial scan with bounds tests at every pixel:
/// the loops hogbom_clean vectorised and clipped. Whether the compiler
/// contracts `residual -= flux * psf` into an FMA depends on the code
/// around it, the shape checks ahead of the loops included, so the copy
/// keeps the whole function verbatim and out of line, as the library
/// compiled it.
[[gnu::noinline]] CleanResult serial_hogbom(ArrayView<cfloat, 3> residual,
                                            ArrayView<const cfloat, 3> psf,
                                            ArrayView<cfloat, 3> model_image,
                                            const CleanConfig& config) {
  const std::size_t n = residual.dim(1);
  IDG_CHECK(residual.dim(0) == kNrPolarizations && residual.dim(2) == n,
            "residual must be [4][n][n]");
  IDG_CHECK(psf.dim(1) == n && psf.dim(2) == n, "psf/residual size mismatch");
  IDG_CHECK(model_image.dim(1) == n, "model/residual size mismatch");
  IDG_CHECK(config.gain > 0.0f && config.gain <= 1.0f,
            "loop gain must be in (0, 1]");
  IDG_CHECK(config.major_gain > 0.0f && config.major_gain <= 1.0f,
            "major_gain must be in (0, 1]");
  IDG_CHECK(config.max_iterations >= 0, "max_iterations must be >= 0");

  IDG_CHECK(config.border_fraction >= 0.0f && config.border_fraction < 0.5f,
            "border_fraction must be in [0, 0.5)");

  const std::size_t c0 = n / 2;  // PSF centre
  const std::size_t lo = static_cast<std::size_t>(
      config.border_fraction * static_cast<float>(n));
  const std::size_t hi = n - lo;
  CleanResult result;
  float stop_at = config.threshold;

  for (int it = 0; it < config.max_iterations; ++it) {
    float peak = 0.0f;
    std::size_t py = lo, px = lo;
    for (std::size_t y = lo; y < hi; ++y) {
      for (std::size_t x = lo; x < hi; ++x) {
        const float v = std::abs(serial_stokes_i(residual, y, x));
        if (v > peak) {
          peak = v;
          py = y;
          px = x;
        }
      }
    }
    result.final_peak = peak;
    if (it == 0) {
      stop_at = std::max(config.threshold,
                         (1.0f - config.major_gain) * peak);
    }
    if (peak <= stop_at) break;

    const float flux = config.gain * serial_stokes_i(residual, py, px);
    result.components.push_back({px, py, flux});
    ++result.iterations;

    const long dy0 = static_cast<long>(py) - static_cast<long>(c0);
    const long dx0 = static_cast<long>(px) - static_cast<long>(c0);
    for (std::size_t y = 0; y < n; ++y) {
      const long sy = static_cast<long>(y) - dy0;
      if (sy < 0 || sy >= static_cast<long>(n)) continue;
      for (std::size_t x = 0; x < n; ++x) {
        const long sx = static_cast<long>(x) - dx0;
        if (sx < 0 || sx >= static_cast<long>(n)) continue;
        for (std::size_t p = 0; p < kNrPolarizations; ++p) {
          if (p == 1 || p == 2) continue;
          residual(p, y, x) -= flux * psf(p, static_cast<std::size_t>(sy),
                                          static_cast<std::size_t>(sx));
        }
      }
    }
    model_image(0, py, px) += flux;
    model_image(3, py, px) += flux;
  }
  return result;
}

/// A [4][n][n] PSF with a unit centre and sidelobes over the whole raster,
/// so every subtraction is clipped by the image borders.
Array3D<cfloat> broad_psf(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-0.05f, 0.05f);
  Array3D<cfloat> psf(kNrPolarizations, n, n);
  const double c = static_cast<double>(n / 2);
  for (std::size_t p = 0; p < kNrPolarizations; ++p)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const double r2 = (y - c) * (y - c) + (x - c) * (x - c);
        const auto lobe = static_cast<float>(std::exp(-r2 / 18.0));
        psf(p, y, x) = {lobe + dist(rng), dist(rng)};
      }
  psf(0, n / 2, n / 2) = {1.0f, 0.0f};
  psf(3, n / 2, n / 2) = {1.0f, 0.0f};
  return psf;
}

void set_stokes_i(Array3D<cfloat>& cube, std::size_t y, std::size_t x,
                  float flux) {
  cube(0, y, x) = {flux, 0.1f};
  cube(3, y, x) = {flux, -0.1f};
}

/// Runs hogbom_clean and the serial loop on copies of the same inputs and
/// expects equal results, byte for byte.
CleanResult expect_same_as_serial(const Array3D<cfloat>& residual,
                                  const Array3D<cfloat>& psf,
                                  const CleanConfig& config) {
  const std::size_t n = residual.dim(1);
  Array3D<cfloat> fast(kNrPolarizations, n, n), slow(kNrPolarizations, n, n);
  std::copy(residual.begin(), residual.end(), fast.begin());
  std::copy(residual.begin(), residual.end(), slow.begin());
  Array3D<cfloat> fast_model(kNrPolarizations, n, n);
  Array3D<cfloat> slow_model(kNrPolarizations, n, n);
  const CleanResult got =
      hogbom_clean(fast.view(), psf.cview(), fast_model.view(), config);
  const CleanResult want =
      serial_hogbom(slow.view(), psf.cview(), slow_model.view(), config);

  EXPECT_EQ(std::memcmp(fast.data(), slow.data(), fast.bytes()), 0);
  EXPECT_EQ(std::memcmp(fast_model.data(), slow_model.data(),
                        fast_model.bytes()),
            0);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::memcmp(&got.final_peak, &want.final_peak, sizeof(float)), 0);
  EXPECT_EQ(got.components.size(), want.components.size());
  for (std::size_t i = 0;
       i < std::min(got.components.size(), want.components.size()); ++i) {
    SCOPED_TRACE("component " + std::to_string(i));
    EXPECT_EQ(got.components[i].x, want.components[i].x);
    EXPECT_EQ(got.components[i].y, want.components[i].y);
    EXPECT_EQ(std::memcmp(&got.components[i].flux, &want.components[i].flux,
                          sizeof(float)),
              0);
  }
  return got;
}

TEST(HogbomTest, MatchesTheSerialLoopByteForByte) {
  // Sources inside the PSF's reach of all four borders, a negative one,
  // and a noise floor, cleaned deep with a broad PSF.
  const std::size_t n = 64;
  Array3D<cfloat> residual(kNrPolarizations, n, n);
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> noise(-0.02f, 0.02f);
  for (auto& v : residual) v = {noise(rng), noise(rng)};
  set_stokes_i(residual, 9, 30, 1.5f);    // top
  set_stokes_i(residual, 54, 33, 1.2f);   // bottom
  set_stokes_i(residual, 28, 8, 1.1f);    // left
  set_stokes_i(residual, 35, 55, 0.9f);   // right
  set_stokes_i(residual, 40, 20, -1.3f);  // negative
  const Array3D<cfloat> psf = broad_psf(n, 5);

  CleanConfig cfg;
  cfg.gain = 0.2f;
  cfg.major_gain = 1.0f;
  cfg.max_iterations = 150;
  const CleanResult result = expect_same_as_serial(residual, psf, cfg);
  EXPECT_EQ(result.iterations, 150);
}

TEST(HogbomTest, FirstPixelInRowMajorOrderWinsATie) {
  const std::size_t n = 32;
  Array3D<cfloat> residual(kNrPolarizations, n, n);
  set_stokes_i(residual, 20, 9, 1.0f);
  set_stokes_i(residual, 12, 25, -1.0f);  // earlier row, same |I|
  set_stokes_i(residual, 12, 22, 1.0f);   // same row, earlier column
  CleanConfig cfg;
  cfg.gain = 1.0f;
  cfg.max_iterations = 3;
  const CleanResult result =
      expect_same_as_serial(residual, delta_psf(n), cfg);
  ASSERT_EQ(result.components.size(), 3u);
  EXPECT_EQ(result.components[0].y, 12u);
  EXPECT_EQ(result.components[0].x, 22u);
  EXPECT_EQ(result.components[1].y, 12u);
  EXPECT_EQ(result.components[1].x, 25u);
  EXPECT_EQ(result.components[2].y, 20u);
}

TEST(HogbomTest, NanPixelIsNeverThePeak) {
  const std::size_t n = 32;
  Array3D<cfloat> residual(kNrPolarizations, n, n);
  residual(0, 10, 10) = {std::numeric_limits<float>::quiet_NaN(), 0.0f};
  set_stokes_i(residual, 18, 14, 0.5f);
  set_stokes_i(residual, 10, 11, -0.25f);
  CleanConfig cfg;
  cfg.gain = 0.5f;
  cfg.major_gain = 1.0f;
  cfg.max_iterations = 6;
  const CleanResult result = expect_same_as_serial(residual, broad_psf(n, 3),
                                                   cfg);
  ASSERT_FALSE(result.components.empty());
  for (const Component& c : result.components)
    EXPECT_FALSE(c.y == 10 && c.x == 10) << "cleaned the NaN pixel";
  EXPECT_FALSE(std::isnan(result.final_peak));
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

TEST(HogbomTest, PsfOrModelOfTheWrongShapeIsRejectedByName) {
  const std::size_t n = 16;
  auto residual = delta_psf(n);
  const auto clean_with = [&](const Array3D<cfloat>& psf,
                              const Array3D<cfloat>& model) {
    return [&] {
      Array3D<cfloat> m(model.dim(0), model.dim(1), model.dim(2));
      hogbom_clean(residual.view(), psf.cview(), m.view(), CleanConfig{});
    };
  };
  const Array3D<cfloat> cube(kNrPolarizations, n, n);
  expect_error_containing(clean_with(Array3D<cfloat>(2, n, n), cube),
                          "psf is 2x16x16");
  expect_error_containing(clean_with(Array3D<cfloat>(4, n, n + 2), cube),
                          "psf is 4x16x18");
  expect_error_containing(clean_with(cube, Array3D<cfloat>(1, n, n)),
                          "model is 1x16x16");
  expect_error_containing(clean_with(cube, Array3D<cfloat>(4, n + 4, n + 4)),
                          "model is 4x20x20");
}

// --- major cycle with IDG -------------------------------------------------------

struct CycleFixture {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;

  static CycleFixture make() {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 14;
    cfg.nr_timesteps = 64;
    cfg.nr_channels = 4;
    cfg.grid_size = 256;
    cfg.subgrid_size = 32;
    auto ds = sim::make_benchmark_dataset_no_vis(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 16;
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                            cfg.subgrid_size);
    return {std::move(ds), params, std::move(plan), std::move(aterms)};
  }
};

TEST(MajorCycleTest, PsfPeaksAtUnityAtCenter) {
  auto f = CycleFixture::make();
  Processor proc(f.params);
  auto psf = make_psf(proc, f.plan, f.ds.uvw.cview(), f.aterms.cview());
  const std::size_t c = f.params.grid_size / 2;
  EXPECT_NEAR(psf(0, c, c).real(), 1.0f, 0.02f);
  // Off-centre PSF values are strictly smaller.
  EXPECT_LT(std::abs(psf(0, c + 30, c + 40)), 0.9f);
}

TEST(MajorCycleTest, ResidualImageIsCorrectedWithTheBackendsTaper) {
  // auto_configure(1e-5) selects the ES taper: a cycle that cleans nothing
  // must hand back exactly the dirty image a direct grid call gives with
  // the ES correction, not the PSWF one.
  sim::BenchmarkConfig cfg;
  cfg.nr_stations = 6;
  cfg.nr_timesteps = 16;
  cfg.nr_channels = 4;
  cfg.grid_size = 128;
  cfg.subgrid_size = 24;
  auto ds = sim::make_benchmark_dataset_no_vis(cfg);
  Parameters params;
  params.grid_size = cfg.grid_size;
  params.subgrid_size = cfg.subgrid_size;
  params.image_size = ds.image_size;
  params.nr_stations = cfg.nr_stations;
  params.auto_configure(1e-5);
  ASSERT_EQ(params.taper, TaperKind::kES);
  Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
  auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                          params.subgrid_size);
  const double dl = params.image_size / static_cast<double>(params.grid_size);
  sim::SkyModel sky = {sim::PointSource{static_cast<float>(10 * dl),
                                        static_cast<float>(-6 * dl), 1.0f}};
  auto vis = sim::predict_visibilities(sky, ds.uvw, ds.baselines, ds.obs);

  Processor proc(params);
  MajorCycleConfig mc;
  mc.nr_major_cycles = 1;
  mc.minor.max_iterations = 0;
  const auto result = run_major_cycles(proc, plan, ds.uvw.cview(),
                                       vis.cview(), aterms.cview(), mc);

  Array3D<cfloat> grid(kNrPolarizations, params.grid_size, params.grid_size);
  proc.grid_visibilities(plan, ds.uvw.cview(), vis.cview(), aterms.cview(),
                         grid.view());
  const Array3D<cfloat> dirty =
      make_dirty_image(grid, plan.nr_planned_visibilities(), params);
  ASSERT_EQ(result.residual_image.size(), dirty.size());
  EXPECT_EQ(std::memcmp(result.residual_image.data(), dirty.data(),
                        dirty.bytes()),
            0);
}

TEST(MajorCycleTest, RecoversTwoPointSources) {
  auto f = CycleFixture::make();
  const double dl =
      f.params.image_size / static_cast<double>(f.params.grid_size);
  sim::SkyModel sky = {
      sim::PointSource{static_cast<float>(22 * dl), static_cast<float>(-11 * dl), 1.0f},
      sim::PointSource{static_cast<float>(-15 * dl), static_cast<float>(18 * dl), 0.6f},
  };
  auto vis =
      sim::predict_visibilities(sky, f.ds.uvw, f.ds.baselines, f.ds.obs);

  Processor proc(f.params);
  MajorCycleConfig cfg;
  cfg.nr_major_cycles = 3;
  cfg.minor.gain = 0.2f;
  cfg.minor.max_iterations = 100;
  auto result = run_major_cycles(proc, f.plan, f.ds.uvw.cview(), vis.cview(),
                                 f.aterms.cview(), cfg);

  // The model must contain flux concentrated at both source pixels.
  const std::size_t cx1 = f.params.grid_size / 2 + 22;
  const std::size_t cy1 = f.params.grid_size / 2 - 11;
  const std::size_t cx2 = f.params.grid_size / 2 - 15;
  const std::size_t cy2 = f.params.grid_size / 2 + 18;

  auto flux_around = [&](std::size_t cy, std::size_t cx) {
    float sum = 0.0f;
    for (std::size_t y = cy - 3; y <= cy + 3; ++y)
      for (std::size_t x = cx - 3; x <= cx + 3; ++x)
        sum += result.model_image(0, y, x).real();
    return sum;
  };
  EXPECT_NEAR(flux_around(cy1, cx1), 1.0f, 0.25f);
  EXPECT_NEAR(flux_around(cy2, cx2), 0.6f, 0.25f);

  // Total recovered flux matches the injected 1.6 Jy.
  float total = 0.0f;
  for (std::size_t y = 0; y < f.params.grid_size; ++y)
    for (std::size_t x = 0; x < f.params.grid_size; ++x)
      total += result.model_image(0, y, x).real();
  EXPECT_NEAR(total, 1.6f, 0.15f);

  // The model's brightest pixel is at the brightest source.
  float best = -1.0f;
  std::size_t by = 0, bx = 0;
  for (std::size_t y = 0; y < f.params.grid_size; ++y)
    for (std::size_t x = 0; x < f.params.grid_size; ++x)
      if (result.model_image(0, y, x).real() > best) {
        best = result.model_image(0, y, x).real();
        by = y;
        bx = x;
      }
  EXPECT_NEAR(static_cast<double>(by), static_cast<double>(cy1), 1.0);
  EXPECT_NEAR(static_cast<double>(bx), static_cast<double>(cx1), 1.0);

  // Residual peak must decrease across cycles.
  ASSERT_GE(result.peak_history.size(), 2u);
  EXPECT_LT(result.peak_history.back(), result.peak_history.front());
  EXPECT_LT(result.peak_history.back(), 0.05f);
  EXPECT_GT(result.total_components, 0);

  // Stage times must cover the full cycle (Fig 9's stages).
  EXPECT_GT(result.metrics.at(stage::kGridder).seconds, 0.0);
  EXPECT_GT(result.metrics.at(stage::kDegridder).seconds, 0.0);
  EXPECT_GT(result.metrics.at(stage::kGridFft).seconds, 0.0);
}

}  // namespace
