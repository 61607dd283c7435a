// Tests for the optimized CPU kernels and the vectorized math library:
// every optimized variant must agree with the reference kernels, and the
// vmath sincos must meet its accuracy contract.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <random>

#include "idg/kernels.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "idg/taper.hpp"
#include "kernels/jit.hpp"
#include "kernels/optimized.hpp"
#include "kernels/vmath.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"
#include "hostile_path.hpp"

namespace {

using namespace idg;

// --- vmath -------------------------------------------------------------------

TEST(VMathTest, PolynomialSincosAccuracySmallArgs) {
  std::mt19937 rng(1);
  std::uniform_real_distribution<float> dist(-10.0f, 10.0f);
  const std::size_t n = 10000;
  std::vector<float> x(n), s(n), c(n);
  for (auto& v : x) v = dist(rng);
  vmath::sincos_batch(n, x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s[i], std::sin(static_cast<double>(x[i])), 2e-7)
        << "x=" << x[i];
    EXPECT_NEAR(c[i], std::cos(static_cast<double>(x[i])), 2e-7)
        << "x=" << x[i];
  }
}

TEST(VMathTest, PolynomialSincosAccuracyLargeArgs) {
  // The paper's SVML setting: arguments in [-1e4, 1e4], medium accuracy
  // (max 4 ulp). Our two-step reduction must stay within ~1e-4 absolute
  // there (float argument quantization dominates).
  std::mt19937 rng(2);
  std::uniform_real_distribution<float> dist(-1e4f, 1e4f);
  const std::size_t n = 10000;
  std::vector<float> x(n), s(n), c(n);
  for (auto& v : x) v = dist(rng);
  vmath::sincos_batch(n, x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s[i], std::sin(static_cast<double>(x[i])), 2e-4);
    EXPECT_NEAR(c[i], std::cos(static_cast<double>(x[i])), 2e-4);
  }
}

TEST(VMathTest, PolynomialSincosPythagoreanIdentity) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  const std::size_t n = 4096;
  std::vector<float> x(n), s(n), c(n);
  for (auto& v : x) v = dist(rng);
  vmath::sincos_batch(n, x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(s[i] * s[i] + c[i] * c[i], 1.0f, 1e-5f);
}

TEST(VMathTest, QuadrantBoundariesExact) {
  const std::vector<float> x = {0.0f,
                                std::numbers::pi_v<float> / 2,
                                std::numbers::pi_v<float>,
                                3 * std::numbers::pi_v<float> / 2,
                                2 * std::numbers::pi_v<float>,
                                -std::numbers::pi_v<float> / 2};
  std::vector<float> s(x.size()), c(x.size());
  vmath::sincos_batch(x.size(), x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s[i], std::sin(static_cast<double>(x[i])), 1e-6);
    EXPECT_NEAR(c[i], std::cos(static_cast<double>(x[i])), 1e-6);
  }
}

TEST(VMathTest, LutSincosMeetsCoarseAccuracy) {
  std::mt19937 rng(4);
  std::uniform_real_distribution<float> dist(-1000.0f, 1000.0f);
  const std::size_t n = 8192;
  std::vector<float> x(n), s(n), c(n);
  for (auto& v : x) v = dist(rng);
  vmath::sincos_lut(n, x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s[i], std::sin(static_cast<double>(x[i])), 2e-3);
    EXPECT_NEAR(c[i], std::cos(static_cast<double>(x[i])), 2e-3);
  }
}

TEST(VMathTest, LibmReferenceMatchesStd) {
  std::vector<float> x = {0.1f, -0.7f, 3.0f};
  std::vector<float> s(3), c(3);
  vmath::sincos_libm(3, x.data(), s.data(), c.data());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(s[i], std::sin(x[i]));
    EXPECT_FLOAT_EQ(c[i], std::cos(x[i]));
  }
}

TEST(VMathTest, ZeroLengthBatchIsNoop) {
  vmath::sincos_batch(0, nullptr, nullptr, nullptr);
  vmath::sincos_lut(0, nullptr, nullptr, nullptr);
}

// --- registry -------------------------------------------------------------------

TEST(RegistryTest, AllNamesResolve) {
  for (const auto& name : kernels::kernel_set_names()) {
    EXPECT_EQ(kernels::kernel_set(name).name(), name);
  }
}

TEST(RegistryTest, UnknownNameThrows) {
  EXPECT_THROW(kernels::kernel_set("does-not-exist"), Error);
}

// --- optimized vs reference -------------------------------------------------------

struct KernelFixture {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
  Array3D<Visibility> vis;

  static KernelFixture make(bool nontrivial_aterms) {
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 48;
    cfg.nr_channels = 5;  // deliberately not a SIMD multiple
    cfg.grid_size = 256;
    cfg.subgrid_size = 24;
    auto ds = sim::make_benchmark_dataset(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 8;
    params.aterm_interval = 16;
    params.max_timesteps_per_subgrid = 32;

    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms =
        nontrivial_aterms
            ? sim::make_phase_screen_aterms(48 / 16, cfg.nr_stations,
                                            cfg.subgrid_size, ds.image_size,
                                            1.0, 9)
            : sim::make_identity_aterms(48 / 16, cfg.nr_stations,
                                        cfg.subgrid_size);
    Array3D<Visibility> vis(ds.nr_baselines(), ds.nr_timesteps(),
                            ds.nr_channels());
    std::copy(ds.visibilities.begin(), ds.visibilities.end(), vis.begin());
    return {std::move(ds), params, std::move(plan), std::move(aterms),
            std::move(vis)};
  }
};

class OptimizedVsReference : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizedVsReference, GridderMatches) {
  auto f = KernelFixture::make(/*nontrivial_aterms=*/true);
  const KernelSet& candidate = kernels::kernel_set(GetParam());
  const std::size_t n = f.params.subgrid_size;

  auto taper = make_taper(n);
  KernelData data{f.ds.uvw.cview(), f.plan.wavenumbers(), f.aterms.cview(),
                  taper.cview()};

  Array4D<cfloat> ref(f.plan.nr_subgrids(), 4, n, n);
  Array4D<cfloat> opt(f.plan.nr_subgrids(), 4, n, n);
  reference_kernels().grid(f.params, data, f.plan.items(), f.vis.cview(),
                           ref.view());
  candidate.grid(f.params, data, f.plan.items(), f.vis.cview(), opt.view());

  // Tolerance scales with the accumulation depth (visibilities/pixel) and
  // the sincos variant's accuracy.
  const double tol = std::string(GetParam()) == "optimized-lut" ? 0.3 : 5e-3;
  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err,
                       static_cast<double>(std::abs(ref.data()[i] - opt.data()[i])));
    max_val = std::max(max_val, static_cast<double>(std::abs(ref.data()[i])));
  }
  EXPECT_LT(max_err, tol * std::max(max_val, 1.0))
      << candidate.name() << ": max_err=" << max_err
      << " max_val=" << max_val;
}

TEST_P(OptimizedVsReference, DegridderMatches) {
  auto f = KernelFixture::make(/*nontrivial_aterms=*/true);
  const KernelSet& candidate = kernels::kernel_set(GetParam());
  const std::size_t n = f.params.subgrid_size;

  auto taper = make_taper(n);
  KernelData data{f.ds.uvw.cview(), f.plan.wavenumbers(), f.aterms.cview(),
                  taper.cview()};

  // Random subgrids as degridder input.
  Array4D<cfloat> subgrids(f.plan.nr_subgrids(), 4, n, n);
  std::mt19937 rng(17);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : subgrids) v = {dist(rng), dist(rng)};

  Array3D<Visibility> ref(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                          f.ds.nr_channels());
  Array3D<Visibility> opt(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                          f.ds.nr_channels());
  reference_kernels().degrid(f.params, data, f.plan.items(), subgrids.cview(),
                             ref.view());
  candidate.degrid(f.params, data, f.plan.items(), subgrids.cview(),
                   opt.view());

  const double tol = std::string(GetParam()) == "optimized-lut" ? 0.5 : 1e-2;
  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      max_err = std::max(max_err, static_cast<double>(std::abs(
                                      ref.data()[i][p] - opt.data()[i][p])));
      max_val = std::max(max_val,
                         static_cast<double>(std::abs(ref.data()[i][p])));
    }
  }
  EXPECT_LT(max_err, tol * std::max(max_val, 1.0))
      << candidate.name() << ": max_err=" << max_err
      << " max_val=" << max_val;
}

INSTANTIATE_TEST_SUITE_P(Variants, OptimizedVsReference,
                         ::testing::Values("optimized", "optimized-libm",
                                           "optimized-lut"));

// --- ragged shapes ----------------------------------------------------------------
//
// Every tail of the loops' blocking — channel counts below the recurrence's
// three, odd subgrid sizes whose last pixel tile is partial, timestep runs
// shorter than a phase block, down to single-visibility items — must match
// the reference kernels.

/// The runtime-compiled cases test the compiled loops; without a toolchain
/// "jit" runs the static ones, which the other cases already cover.
bool needs_missing_toolchain(const std::string& kernel_set) {
  return kernel_set == "jit" && !kernels::jit_available();
}

/// sqrt(sum |got - ref|^2 / sum |ref|^2) over `count` complex values.
template <typename At>
double relative_l2(std::size_t count, At at) {
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [got, ref] = at(i);
    err += std::norm(std::complex<double>(got) - std::complex<double>(ref));
    norm += std::norm(std::complex<double>(ref));
  }
  return std::sqrt(err / norm);
}

/// Grids the dataset's visibilities and degrids random subgrids with
/// `candidate` and with the reference kernels. Bounds the max error against
/// the peak (5e-3 gridder, 1e-2 degridder) and, when `max_l2` > 0, the
/// relative l2 error.
void expect_matches_reference(const KernelSet& candidate,
                              const Parameters& params,
                              const sim::Dataset& ds, const Plan& plan,
                              const KernelData& data, double max_l2 = 0.0) {
  const std::size_t n = params.subgrid_size;
  Array4D<cfloat> ref(plan.nr_subgrids(), 4, n, n);
  Array4D<cfloat> got(plan.nr_subgrids(), 4, n, n);
  reference_kernels().grid(params, data, plan.items(),
                           ds.visibilities.cview(), ref.view());
  candidate.grid(params, data, plan.items(), ds.visibilities.cview(),
                 got.view());
  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    ref.data()[i] - got.data()[i])));
    max_val = std::max(max_val, static_cast<double>(std::abs(ref.data()[i])));
  }
  EXPECT_LT(max_err, 5e-3 * std::max(max_val, 1.0))
      << candidate.name() << " gridder: max_err=" << max_err;
  if (max_l2 > 0.0) {
    EXPECT_LT(relative_l2(ref.size(),
                          [&](std::size_t i) {
                            return std::pair(got.data()[i], ref.data()[i]);
                          }),
              max_l2)
        << candidate.name() << " gridder";
  }

  Array4D<cfloat> subgrids(plan.nr_subgrids(), 4, n, n);
  std::mt19937 rng(31);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : subgrids) v = {dist(rng), dist(rng)};
  Array3D<Visibility> vref(ds.nr_baselines(), ds.nr_timesteps(),
                           ds.nr_channels());
  Array3D<Visibility> vgot(ds.nr_baselines(), ds.nr_timesteps(),
                           ds.nr_channels());
  reference_kernels().degrid(params, data, plan.items(), subgrids.cview(),
                             vref.view());
  candidate.degrid(params, data, plan.items(), subgrids.cview(), vgot.view());
  max_err = 0.0;
  max_val = 0.0;
  for (std::size_t i = 0; i < vref.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      max_err = std::max(max_err,
                         static_cast<double>(std::abs(vref.data()[i][p] -
                                                      vgot.data()[i][p])));
      max_val = std::max(max_val,
                         static_cast<double>(std::abs(vref.data()[i][p])));
    }
  }
  EXPECT_LT(max_err, 1e-2 * std::max(max_val, 1.0))
      << candidate.name() << " degridder: max_err=" << max_err;
  if (max_l2 > 0.0) {
    EXPECT_LT(relative_l2(vref.size() * kNrPolarizations,
                          [&](std::size_t i) {
                            return std::pair(vgot.data()[i / 4][i % 4],
                                             vref.data()[i / 4][i % 4]);
                          }),
              max_l2)
        << candidate.name() << " degridder";
  }
}

struct RaggedShape {
  int nr_channels;
  std::size_t subgrid_size;
  int nr_timesteps;
  int max_timesteps_per_subgrid;
};

class RaggedShapes : public ::testing::TestWithParam<std::string> {};

TEST_P(RaggedShapes, GridderAndDegridderMatchReference) {
  if (needs_missing_toolchain(GetParam()))
    GTEST_SKIP() << "no toolchain for runtime compilation";
  const KernelSet& candidate = kernels::kernel_set(GetParam());
  const std::vector<RaggedShape> shapes = {
      // 1 channel + max_timesteps 1: single-visibility work items.
      {1, 16, 9, 1},
      // Odd channel counts and subgrid sizes that divide none of C/P.
      {3, 15, 9, 5},
      {5, 18, 10, 32},
      {7, 17, 12, 7},
  };
  for (const RaggedShape& shape : shapes) {
    SCOPED_TRACE("channels=" + std::to_string(shape.nr_channels) +
                 " subgrid=" + std::to_string(shape.subgrid_size) +
                 " timesteps=" + std::to_string(shape.nr_timesteps) +
                 " max_ts=" + std::to_string(shape.max_timesteps_per_subgrid));
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 4;
    cfg.nr_timesteps = shape.nr_timesteps;
    cfg.nr_channels = shape.nr_channels;
    cfg.grid_size = 128;
    cfg.subgrid_size = shape.subgrid_size;
    auto ds = sim::make_benchmark_dataset(cfg);

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 4;
    params.max_timesteps_per_subgrid = shape.max_timesteps_per_subgrid;

    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                            cfg.subgrid_size);
    auto taper = make_taper(cfg.subgrid_size);
    KernelData data{ds.uvw.cview(), plan.wavenumbers(), aterms.cview(),
                    taper.cview()};

    expect_matches_reference(candidate, params, ds, plan, data);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RaggedShapes,
                         ::testing::Values("optimized", "optimized-libm",
                                           "jit"));

// --- the optimized kernels' input-dependent paths --------------------------------
//
// The optimized kernels choose their inner loop from the input: uniformly
// spaced channels take the channel-phasor recurrence; non-uniform spacing,
// and items of one or two channels, evaluate one sincos per channel. The
// gridder's last pixel tile is partial when N^2 is not a multiple of its
// lane count. Each case is bounded like OptimizedVsReference, and also in
// relative l2 against the reference kernels.

struct PathCase {
  const char* name;
  int nr_channels;
  std::size_t subgrid_size;
  float w_scale;
  bool uniform_channels;
};

class OptimizedPaths : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizedPaths, GridderAndDegridderMatchReference) {
  if (needs_missing_toolchain(GetParam()))
    GTEST_SKIP() << "no toolchain for runtime compilation";
  const KernelSet& candidate = kernels::kernel_set(GetParam());
  const PathCase cases[] = {
      {"16 uniform channels", 16, 24, 1.0f, true},
      {"1 channel", 1, 24, 1.0f, true},
      {"non-uniform channels", 8, 24, 1.0f, false},
      {"N^2 not a multiple of the lanes", 5, 18, 1.0f, true},
      {"w x 40", 8, 24, 40.0f, true},
  };
  for (const PathCase& pc : cases) {
    SCOPED_TRACE(pc.name);
    sim::BenchmarkConfig cfg;
    cfg.nr_stations = 6;
    cfg.nr_timesteps = 48;
    cfg.nr_channels = pc.nr_channels;
    cfg.grid_size = 256;
    cfg.subgrid_size = pc.subgrid_size;
    auto ds = sim::make_benchmark_dataset(cfg);
    for (UVW& c : ds.uvw) c.w *= pc.w_scale;
    if (!pc.uniform_channels) {
      // Quadratic spacing: channel c moves by up to 0.2 % of its frequency,
      // thousands of float ulps away from any uniform grid.
      const double last = static_cast<double>(ds.frequencies.size() - 1);
      for (std::size_t c = 0; c < ds.frequencies.size(); ++c)
        ds.frequencies[c] *= 1.0 + 2e-3 * (c / last) * (c / last);
    }

    Parameters params;
    params.grid_size = cfg.grid_size;
    params.subgrid_size = cfg.subgrid_size;
    params.image_size = ds.image_size;
    params.nr_stations = cfg.nr_stations;
    params.kernel_size = 8;
    params.aterm_interval = 16;
    params.max_timesteps_per_subgrid = 32;
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines);
    auto aterms = sim::make_phase_screen_aterms(
        48 / 16, cfg.nr_stations, cfg.subgrid_size, ds.image_size, 1.0, 9);
    auto taper = make_taper(cfg.subgrid_size);
    KernelData data{ds.uvw.cview(), plan.wavenumbers(), aterms.cview(),
                    taper.cview()};
    expect_matches_reference(candidate, params, ds, plan, data,
                             /*max_l2=*/1e-5);
  }
}

// The LUT sincos is ~1e-3 accurate, far above the l2 bound.
INSTANTIATE_TEST_SUITE_P(Variants, OptimizedPaths,
                         ::testing::Values("optimized", "optimized-libm",
                                           "jit"));

// --- runtime-compiled kernels ---------------------------------------------------

TEST(JitTest, AvailabilityProbeIsStable) {
  const bool first = kernels::jit_available();
  const bool second = kernels::jit_available();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(kernels::jit_cache_directory().empty());
}

TEST(JitTest, GridderMatchesReference) {
  if (!kernels::jit_available()) {
    GTEST_SKIP() << "no toolchain for runtime compilation";
  }
  auto f = KernelFixture::make(/*nontrivial_aterms=*/true);
  const std::size_t n = f.params.subgrid_size;
  auto taper = make_taper(n);
  KernelData data{f.ds.uvw.cview(), f.plan.wavenumbers(), f.aterms.cview(),
                  taper.cview()};

  Array4D<cfloat> ref(f.plan.nr_subgrids(), 4, n, n);
  Array4D<cfloat> jit(f.plan.nr_subgrids(), 4, n, n);
  reference_kernels().grid(f.params, data, f.plan.items(), f.vis.cview(),
                           ref.view());
  kernels::jit_kernels().grid(f.params, data, f.plan.items(), f.vis.cview(),
                              jit.view());

  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    ref.data()[i] - jit.data()[i])));
    max_val = std::max(max_val, static_cast<double>(std::abs(ref.data()[i])));
  }
  EXPECT_LT(max_err, 5e-3 * std::max(max_val, 1.0));
}

TEST(JitTest, DegridderMatchesReference) {
  if (!kernels::jit_available()) {
    GTEST_SKIP() << "no toolchain for runtime compilation";
  }
  auto f = KernelFixture::make(/*nontrivial_aterms=*/true);
  const std::size_t n = f.params.subgrid_size;
  auto taper = make_taper(n);
  KernelData data{f.ds.uvw.cview(), f.plan.wavenumbers(), f.aterms.cview(),
                  taper.cview()};

  Array4D<cfloat> subgrids(f.plan.nr_subgrids(), 4, n, n);
  std::mt19937 rng(23);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : subgrids) v = {dist(rng), dist(rng)};

  Array3D<Visibility> ref(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                          f.ds.nr_channels());
  Array3D<Visibility> jit(f.ds.nr_baselines(), f.ds.nr_timesteps(),
                          f.ds.nr_channels());
  reference_kernels().degrid(f.params, data, f.plan.items(), subgrids.cview(),
                             ref.view());
  kernels::jit_kernels().degrid(f.params, data, f.plan.items(),
                                subgrids.cview(), jit.view());

  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (int p = 0; p < kNrPolarizations; ++p) {
      max_err = std::max(max_err, static_cast<double>(std::abs(
                                      ref.data()[i][p] - jit.data()[i][p])));
      max_val = std::max(max_val,
                         static_cast<double>(std::abs(ref.data()[i][p])));
    }
  }
  EXPECT_LT(max_err, 1e-2 * std::max(max_val, 1.0));
}

TEST(JitTest, CompilesUnderADirectoryNamedWithShellMetacharacters) {
  if (!kernels::jit_available()) {
    GTEST_SKIP() << "no toolchain for runtime compilation";
  }
  const test::HostilePath hostile("idg_test_jit_shell");
  const test::ScopedEnv tmpdir("TMPDIR", hostile.dir);
  const std::string cache = kernels::jit_cache_directory();
  EXPECT_EQ(cache.rfind(hostile.dir + "/idg-jit-", 0), 0u) << cache;
  ASSERT_TRUE(std::filesystem::is_directory(cache)) << cache;

  // A shape no other test compiles, so the compiler really runs here.
  const kernels::CompiledLoops& loops = kernels::jit_loops(13, 3);
  EXPECT_NE(loops.grid, nullptr);
  EXPECT_NE(loops.degrid, nullptr);
  EXPECT_FALSE(std::filesystem::exists(hostile.pwned));
  // One published object; the process-unique source and temporary object
  // are gone.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".so") << entry.path();
  }
  EXPECT_EQ(files, 1u);
}

TEST(JitTest, PublishingAShapeRemovesItsStaleObjects) {
  if (!kernels::jit_available()) {
    GTEST_SKIP() << "no toolchain for runtime compilation";
  }
  const test::HostilePath scratch("idg_test_jit_prune");
  const test::ScopedEnv tmpdir("TMPDIR", scratch.dir);
  const std::filesystem::path cache = kernels::jit_cache_directory();
  // Shape 11/3 compiled from an older source; then what must survive: the
  // same stale hash for another shape, and another process's in-flight
  // temporaries of this shape.
  const std::string stale = "kernel_11_3_00000000.so";
  const std::vector<std::string> kept = {"kernel_11_5_00000000.so",
                                         "kernel_11_3_00000000.4242.so",
                                         "kernel_11_3_00000000.4242.cpp"};
  for (const std::string& name : kept) std::ofstream(cache / name) << "x";
  std::ofstream(cache / stale) << "x";

  // A shape no other test compiles, so the compiler really runs here.
  const kernels::CompiledLoops& loops = kernels::jit_loops(11, 3);
  EXPECT_NE(loops.grid, nullptr);
  EXPECT_FALSE(std::filesystem::exists(cache / stale));
  for (const std::string& name : kept) {
    EXPECT_TRUE(std::filesystem::exists(cache / name)) << name;
  }
  std::size_t objects = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache)) {
    const std::string name = entry.path().filename().string();
    objects += name.rfind("kernel_11_3_", 0) == 0 &&
               name.size() == stale.size() &&
               entry.path().extension() == ".so";
  }
  EXPECT_EQ(objects, 1u);
  EXPECT_FALSE(std::filesystem::exists(scratch.pwned));
}

TEST(JitTest, RegisteredInKernelRegistry) {
  EXPECT_EQ(kernels::kernel_set("jit").name(), "jit");
  const auto names = kernels::kernel_set_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "jit"), names.end());
}

// --- full pipeline equivalence ------------------------------------------------------

TEST(OptimizedPipelineTest, EndToEndImageMatchesReference) {
  auto f = KernelFixture::make(/*nontrivial_aterms=*/false);

  Processor ref_proc(f.params, reference_kernels());
  Processor opt_proc(f.params, kernels::optimized_kernels());

  Array3D<cfloat> grid_ref(4, f.params.grid_size, f.params.grid_size);
  Array3D<cfloat> grid_opt(4, f.params.grid_size, f.params.grid_size);
  ref_proc.grid_visibilities(f.plan, f.ds.uvw.cview(), f.vis.cview(),
                             f.aterms.cview(), grid_ref.view());
  opt_proc.grid_visibilities(f.plan, f.ds.uvw.cview(), f.vis.cview(),
                             f.aterms.cview(), grid_opt.view());

  double max_err = 0.0, max_val = 0.0;
  for (std::size_t i = 0; i < grid_ref.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::abs(
                                    grid_ref.data()[i] - grid_opt.data()[i])));
    max_val = std::max(max_val,
                       static_cast<double>(std::abs(grid_ref.data()[i])));
  }
  EXPECT_LT(max_err, 1e-2 * std::max(max_val, 1.0));
}

}  // namespace
