// Accuracy-contract proof harness (ctest label `accuracy`, DESIGN.md §13).
//
// Parameters::auto_configure(epsilon) promises a dirty-image l2 error below
// the requested epsilon. This suite proves the promise three ways:
//   1. the tier table and validated() reject unachievable requests with
//      named errors (the contract fails loudly, never silently),
//   2. the gridder/degridder pair stays adjoint to within epsilon on every
//      execution backend — also under the flagged-data policies, where both
//      operators apply the same sample mask, and on a w-stacked plan, whose
//      plane stack every backend fills byte for byte alike,
//   3. the dirty image matches a direct double-precision DFT of the same
//      planned visibilities to within epsilon over the central half of the
//      field, for every tier; the pipelined and resilient grids are
//      bit-identical to the synchronous one, extending the proof to all
//      backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <string>

#include "common/error.hpp"
#include "idg/accuracy.hpp"
#include "idg/backend.hpp"
#include "idg/image.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"
#include "idg/wplane.hpp"
#include "kernels/optimized.hpp"
#include "obs/sink.hpp"
#include "sim/aterm.hpp"
#include "sim/dataset.hpp"

namespace {

using namespace idg;

constexpr double kTwoPiD = 6.283185307179586476925286766559;

// --- fixture ----------------------------------------------------------------

struct ContractSetup {
  sim::Dataset ds;
  Parameters params;
  Plan plan;
  sim::ATermCube aterms;
  Array3D<Visibility> vis;

  std::size_t planes = 1;  ///< w-planes of the grid stack

  /// `planes` > 1 builds a w-stacked plan (WPlaneModel::fit) whose grid is
  /// a [planes*4][G][G] plane stack.
  static ContractSetup make(double epsilon,
                            BadSamplePolicy policy =
                                BadSamplePolicy::kZeroAndContinue,
                            int planes = 1) {
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
    params.work_group_size = 4;  // several groups: exercises skip masks
    params.bad_sample_policy = policy;
    params.auto_configure(epsilon);

    const WPlaneModel wplanes =
        planes > 1 ? WPlaneModel::fit(planes, ds.uvw, ds.frequencies)
                   : WPlaneModel();
    Plan plan(params, ds.uvw, ds.frequencies, ds.baselines, &wplanes);
    // The science tier pads subgrid_size: size the A-terms AFTER
    // auto_configure.
    auto aterms = sim::make_identity_aterms(1, cfg.nr_stations,
                                            params.subgrid_size);

    std::mt19937 rng(12345);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    Array3D<Visibility> vis(ds.nr_baselines(), ds.nr_timesteps(),
                            ds.nr_channels());
    for (auto& v : vis)
      v = {{dist(rng), dist(rng)},
           {dist(rng), dist(rng)},
           {dist(rng), dist(rng)},
           {dist(rng), dist(rng)}};
    return {std::move(ds), params, std::move(plan), std::move(aterms),
            std::move(vis), static_cast<std::size_t>(planes)};
  }

  Array3D<cfloat> make_grid() const {
    return Array3D<cfloat>(planes * kNrPolarizations, params.grid_size,
                           params.grid_size);
  }

  std::unique_ptr<GridderBackend> backend(const std::string& name) const {
    // The reference kernel set honours Parameters::accumulation, so it
    // carries the contract on every tier; the preview tier's preferred LUT
    // set is resolved where speed matters (bench_epsilon_sweep).
    return make_backend(name, params);
  }

  Array3D<cfloat> run_grid(const std::string& backend_name) const {
    Array3D<cfloat> grid = make_grid();
    backend(backend_name)
        ->grid(plan, ds.uvw.cview(), vis.cview(), ds.flag_view(),
               aterms.cview(), grid.view(), obs::null_sink());
    return grid;
  }
};

bool grids_bit_identical(const Array3D<cfloat>& a, const Array3D<cfloat>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cfloat)) == 0;
}

/// Relative adjointness defect |<grid(vis), g> - <vis, degrid(g)>| of one
/// backend, with the dataset's flag mask applied to BOTH operators (the
/// same sample projection on each side keeps the pair adjoint).
double adjointness_defect(const ContractSetup& s,
                          const std::string& backend_name) {
  auto backend = s.backend(backend_name);

  Array3D<cfloat> gv = s.make_grid();
  backend->grid(s.plan, s.ds.uvw.cview(), s.vis.cview(), s.ds.flag_view(),
                s.aterms.cview(), gv.view(), obs::null_sink());

  std::mt19937 rng(777);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Array3D<cfloat> g = s.make_grid();
  for (auto& x : g) x = {dist(rng), dist(rng)};

  Array3D<Visibility> gtg(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                          s.ds.nr_channels());
  for (auto& v : gtg) v = Visibility{};
  backend->degrid(s.plan, s.ds.uvw.cview(), g.cview(), s.ds.flag_view(),
                  s.aterms.cview(), gtg.view(), obs::null_sink());

  std::complex<double> lhs{}, rhs{};
  for (std::size_t i = 0; i < g.size(); ++i)
    lhs += std::conj(std::complex<double>(gv.data()[i])) *
           std::complex<double>(g.data()[i]);
  for (std::size_t i = 0; i < s.vis.size(); ++i)
    for (int p = 0; p < kNrPolarizations; ++p)
      rhs += std::conj(std::complex<double>(s.vis.data()[i][p])) *
             std::complex<double>(gtg.data()[i][p]);
  return std::abs(lhs - rhs) /
         std::max({1.0, std::abs(lhs), std::abs(rhs)});
}

/// Relative l2 error of the dirty image against a direct double-precision
/// DFT of the SAME planned visibilities (dropped samples excluded via the
/// plan's coverage), pol 0, over the central half of the field — the
/// region the epsilon contract is calibrated for.
double dft_l2_error(const ContractSetup& s, const Array3D<cfloat>& dirty) {
  Array3D<int> covered(s.ds.nr_baselines(), s.ds.nr_timesteps(),
                       s.ds.nr_channels());
  for (const WorkItem& it : s.plan.items())
    for (int t = 0; t < it.nr_timesteps; ++t)
      for (int c = 0; c < it.nr_channels; ++c)
        covered(static_cast<std::size_t>(it.baseline),
                static_cast<std::size_t>(it.time_begin + t),
                static_cast<std::size_t>(it.channel_begin + c)) = 1;

  const std::size_t n = s.params.grid_size;
  const std::size_t lo = n / 4, hi = 3 * n / 4;
  double num = 0.0, den = 0.0;
#pragma omp parallel for schedule(dynamic) reduction(+ : num, den)
  for (std::size_t y = lo; y < hi; ++y) {
    const double m = (static_cast<double>(y) - n / 2.0) *
                     s.params.image_size / static_cast<double>(n);
    for (std::size_t x = lo; x < hi; ++x) {
      const double l = (static_cast<double>(x) - n / 2.0) *
                       s.params.image_size / static_cast<double>(n);
      const double r2 = l * l + m * m;
      const double pn = r2 >= 1.0 ? 1.0 : 1.0 - std::sqrt(1.0 - r2);
      std::complex<double> ref{};
      for (std::size_t bl = 0; bl < s.ds.nr_baselines(); ++bl) {
        for (std::size_t t = 0; t < s.ds.nr_timesteps(); ++t) {
          const UVW& coord = s.ds.uvw(bl, t);
          const double base = static_cast<double>(coord.u) * l +
                              static_cast<double>(coord.v) * m +
                              static_cast<double>(coord.w) * pn;
          for (std::size_t c = 0; c < s.ds.nr_channels(); ++c) {
            if (!covered(bl, t, c)) continue;
            const double k =
                kTwoPiD * s.ds.frequencies[c] / kSpeedOfLight;
            ref += std::complex<double>(s.vis(bl, t, c).xx) *
                   std::complex<double>(std::cos(base * k),
                                        std::sin(base * k));
          }
        }
      }
      ref /= static_cast<double>(s.plan.nr_planned_visibilities());
      num += std::norm(std::complex<double>(dirty(0, y, x)) - ref);
      den += std::norm(ref);
    }
  }
  return std::sqrt(num / den);
}

// --- 1. tier table and validation -------------------------------------------

TEST(TierTableTest, MapsEpsilonToCalibratedTiers) {
  EXPECT_STREQ(accuracy::tier_for(1e-1).name, "preview");
  EXPECT_STREQ(accuracy::tier_for(5e-3).name, "preview");
  EXPECT_STREQ(accuracy::tier_for(4.9e-3).name, "standard");
  EXPECT_STREQ(accuracy::tier_for(1e-3).name, "standard");
  EXPECT_STREQ(accuracy::tier_for(9e-4).name, "science");
  EXPECT_STREQ(accuracy::tier_for(1e-5).name, "science");

  const auto& preview = accuracy::tier_for(1e-1);
  EXPECT_EQ(preview.accumulation, Accumulation::kSingle);
  EXPECT_EQ(preview.taper, TaperKind::kPSWF);
  const auto& science = accuracy::tier_for(1e-5);
  EXPECT_EQ(science.accumulation, Accumulation::kDouble);
  EXPECT_EQ(science.taper, TaperKind::kES);
  EXPECT_GE(science.kernel_size, 12u);
  EXPECT_GE(science.min_subgrid_size, 2 * science.kernel_size);
}

TEST(TierTableTest, RejectsOutOfRangeEpsilon) {
  EXPECT_THROW(accuracy::tier_for(1.0), Error);
  EXPECT_THROW(accuracy::tier_for(0.0), Error);
  EXPECT_THROW(accuracy::tier_for(-1.0), Error);
  EXPECT_THROW(accuracy::tier_for(1e-9), Error);
  EXPECT_THROW(accuracy::tier_for(std::nan("")), Error);
}

TEST(TierTableTest, PreferredKernelSetResolvesInRegistry) {
  Parameters params;
  EXPECT_STREQ(accuracy::preferred_kernel_set(params), "reference");
  for (const double eps : {1e-1, 1e-3, 1e-5}) {
    params.auto_configure(eps);
    // Every preferred set must resolve: the preview tier names the
    // autotuned dispatch, the others the (accumulation-honouring)
    // reference set.
    const std::string name = accuracy::preferred_kernel_set(params);
    EXPECT_NO_THROW(kernels::kernel_set(name)) << name;
  }
  params.auto_configure(1e-1);
  EXPECT_EQ(std::string(accuracy::preferred_kernel_set(params)), "tuned");
}

TEST(AutoConfigureTest, ScienceTierDerivesTaperKernelAndPadding) {
  Parameters params;
  params.grid_size = 128;
  params.subgrid_size = 24;
  params.image_size = 0.01;
  params.auto_configure(1e-5);
  EXPECT_EQ(params.taper, TaperKind::kES);
  EXPECT_EQ(params.accumulation, Accumulation::kDouble);
  EXPECT_EQ(params.kernel_size, 12u);
  EXPECT_GE(params.subgrid_size, 32u);  // padded up from 24
  ASSERT_TRUE(params.epsilon.has_value());
  EXPECT_DOUBLE_EQ(*params.epsilon, 1e-5);
  EXPECT_FALSE(params.validated().has_value());
}

TEST(AutoConfigureTest, PreviewTierKeepsGeometryAndSinglePrecision) {
  Parameters params;
  params.grid_size = 128;
  params.subgrid_size = 24;
  params.image_size = 0.01;
  params.auto_configure(1e-1);
  EXPECT_EQ(params.taper, TaperKind::kPSWF);
  EXPECT_EQ(params.accumulation, Accumulation::kSingle);
  EXPECT_EQ(params.subgrid_size, 24u);  // never shrunk, never padded
  // A larger explicit subgrid survives the tightest tier.
  Parameters big;
  big.grid_size = 256;
  big.subgrid_size = 48;
  big.image_size = 0.01;
  big.auto_configure(1e-5);
  EXPECT_EQ(big.subgrid_size, 48u);
}

TEST(ValidatedEpsilonTest, RejectsOutOfRangeWithNamedError) {
  Parameters params;
  for (const double bad : {2.0, 0.0, -1.0}) {
    params.epsilon = bad;
    auto error = params.validated();
    ASSERT_TRUE(error.has_value()) << bad;
    EXPECT_NE(std::string(error->what()).find("epsilon"), std::string::npos);
    EXPECT_NE(std::string(error->what()).find("must be in"),
              std::string::npos);
  }
  params.epsilon = std::nan("");
  ASSERT_TRUE(params.validated().has_value());
  params.epsilon = 1e-9;
  auto error = params.validated();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(std::string(error->what()).find("achievable floor"),
            std::string::npos);
}

TEST(ValidatedEpsilonTest, RejectsSinglePrecisionBelowItsFloor) {
  // Mirrors ducc's "singleprec and epsilon too small" rejection: float
  // phase math cannot honour a sub-5e-3 contract here (all inputs are
  // float32, so our floor sits higher than wgridder's 5e-5).
  Parameters params;
  params.epsilon = 1e-3;
  params.accumulation = Accumulation::kSingle;
  auto error = params.validated();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(std::string(error->what()).find("single-precision floor"),
            std::string::npos);
}

TEST(ValidatedEpsilonTest, RejectsConfigurationAboveItsErrorFloor) {
  // Hand-built config: double + PSWF can prove 1e-3 but not 1e-4.
  Parameters params;
  params.accumulation = Accumulation::kDouble;
  params.taper = TaperKind::kPSWF;
  params.epsilon = 1e-4;
  auto error = params.validated();
  ASSERT_TRUE(error.has_value());
  const std::string what = error->what();
  EXPECT_NE(what.find("error floor"), std::string::npos) << what;
  EXPECT_NE(what.find("auto_configure"), std::string::npos) << what;
  // The same epsilon is fine once the taper/kernel support can carry it.
  params.taper = TaperKind::kES;
  params.kernel_size = 12;
  params.subgrid_size = 32;
  EXPECT_FALSE(params.validated().has_value());
}

// --- 2 & 3. the proof: adjointness and DFT l2, per tier, per backend --------

class AccuracyContract : public ::testing::TestWithParam<double> {};

TEST_P(AccuracyContract, AdjointnessHoldsOnEveryBackend) {
  // A plain plan, and a 4-plane w-stacked plan on a plane-stack grid.
  const double epsilon = GetParam();
  for (const int planes : {1, 4}) {
    const auto s = ContractSetup::make(
        epsilon, BadSamplePolicy::kZeroAndContinue, planes);
    for (const char* backend : {"synchronous", "pipelined", "resilient"}) {
      const double defect = adjointness_defect(s, backend);
      EXPECT_LE(defect, epsilon) << "backend " << backend << ", epsilon "
                                 << epsilon << ", " << planes << " planes";
    }
    if (planes == 1) continue;
    ASSERT_TRUE(std::any_of(s.plan.items().begin(), s.plan.items().end(),
                            [](const WorkItem& it) { return it.w_plane > 0; }));
    // Every executor fills the plane stack identically, byte for byte.
    const auto stack = s.run_grid("synchronous");
    EXPECT_TRUE(grids_bit_identical(stack, s.run_grid("pipelined")));
    EXPECT_TRUE(grids_bit_identical(stack, s.run_grid("resilient")));
  }
}

TEST_P(AccuracyContract, DirtyImageMatchesDftOnEveryBackend) {
  const double epsilon = GetParam();
  const auto s = ContractSetup::make(epsilon);
  const auto grid = s.run_grid("synchronous");
  const auto dirty =
      make_dirty_image(grid, s.plan.nr_planned_visibilities(), s.params);
  const double l2 = dft_l2_error(s, dirty);
  EXPECT_LE(l2, epsilon) << "requested epsilon " << epsilon;
  // The pipelined and resilient executors produce bit-identical grids
  // (same kernels, same deterministic tile adder), so the l2 proof above
  // covers them too; pin that equivalence here.
  EXPECT_TRUE(grids_bit_identical(grid, s.run_grid("pipelined")));
  EXPECT_TRUE(grids_bit_identical(grid, s.run_grid("resilient")));
}

INSTANTIATE_TEST_SUITE_P(Tiers, AccuracyContract,
                         ::testing::Values(1e-1, 1e-3, 1e-5));

TEST(AccuracyContractFlagged, AdjointnessHoldsUnderFlagPolicies) {
  // Flagged samples are masked identically on the forward and adjoint
  // paths (zeroed for kZeroAndContinue, whole work groups dropped for
  // kSkipWorkGroup), so the operator pair stays adjoint to the contract.
  for (const auto policy : {BadSamplePolicy::kZeroAndContinue,
                            BadSamplePolicy::kSkipWorkGroup}) {
    auto s = ContractSetup::make(1e-3, policy);
    sim::apply_rfi_flags(s.ds, 0.05, 11);
    const double defect = adjointness_defect(s, "synchronous");
    EXPECT_LE(defect, 1e-3) << "policy " << to_string(policy);
    EXPECT_LE(adjointness_defect(s, "pipelined"), 1e-3)
        << "policy " << to_string(policy);
  }
}

// The autotuned dispatch is contract-safe on every tier: it selects among
// the single-precision family only where the float phase-error floor
// already bounds the error (preview), and delegates to the reference
// kernels under double-precision accumulation (standard/science). Prove
// the DFT l2 contract with the "tuned" set explicitly on all three
// tiers — whatever winner the process tuning database currently names.
// Every registered kernel set, on every tier, either meets epsilon or is
// rejected by name: a set that does not implement the tier's accumulation
// precision must not run it silently (single-precision math reads l2
// 1.3e-3 to 2.0e-3, above the standard and science tiers' epsilon).
class KernelSetContract : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelSetContract, DirtyImageMeetsEpsilonOrIsRejectedOnEveryTier) {
  for (const double epsilon : {1e-1, 1e-3, 1e-5}) {
    SCOPED_TRACE("kernel set " + GetParam() + ", tier epsilon " +
                 std::to_string(epsilon));
    const auto s = ContractSetup::make(epsilon);
    BackendOptions options;
    options.executor = "synchronous";
    options.kernels = &kernels::kernel_set(GetParam());
    std::unique_ptr<GridderBackend> backend;
    try {
      backend = make_backend(options, s.params);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "does not implement double-precision accumulation"),
                std::string::npos)
          << e.what();
      // Only the double-accumulation tiers reject, and never the sets
      // that serve them.
      EXPECT_EQ(s.params.accumulation, Accumulation::kDouble);
      EXPECT_NE(GetParam(), "reference");
      EXPECT_NE(GetParam(), "tuned");
      continue;
    }
    Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                         s.params.grid_size);
    backend->grid(s.plan, s.ds.uvw.cview(), s.vis.cview(), s.ds.flag_view(),
                  s.aterms.cview(), grid.view(), obs::null_sink());
    const auto dirty =
        make_dirty_image(grid, s.plan.nr_planned_visibilities(), s.params);
    EXPECT_LE(dft_l2_error(s, dirty), epsilon);
  }
}

INSTANTIATE_TEST_SUITE_P(EverySet, KernelSetContract,
                         ::testing::ValuesIn(kernels::kernel_set_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- backend factory: options struct vs string spelling ---------------------

TEST(BackendOptionsTest, StringAndStructFormsProduceIdenticalGrids) {
  // Explicit-parameter construction (no epsilon) through the old string
  // factory and the new options factory must stay bit-identical.
  const auto s = ContractSetup::make(1e-1);
  Parameters params = s.params;
  params.epsilon.reset();  // pre-contract configuration
  for (const char* name : {"synchronous", "pipelined"}) {
    auto via_string = make_backend(name, params);
    BackendOptions options;
    options.executor = name;
    auto via_struct = make_backend(options, params);
    EXPECT_EQ(via_string->name(), via_struct->name());

    Array3D<cfloat> a(kNrPolarizations, params.grid_size, params.grid_size);
    Array3D<cfloat> b(kNrPolarizations, params.grid_size, params.grid_size);
    via_string->grid(s.plan, s.ds.uvw.cview(), s.vis.cview(),
                     s.aterms.cview(), a.view(), obs::null_sink());
    via_struct->grid(s.plan, s.ds.uvw.cview(), s.vis.cview(),
                     s.aterms.cview(), b.view(), obs::null_sink());
    EXPECT_TRUE(grids_bit_identical(a, b)) << name;
  }
}

TEST(BackendOptionsTest, SupervisorOptionWrapsNonResilientExecutors) {
  const auto s = ContractSetup::make(1e-1);
  BackendOptions options;
  options.executor = "pipelined";
  SupervisorConfig supervisor;
  supervisor.max_attempts_per_group = 5;
  options.supervisor = supervisor;
  auto backend = make_backend(options, s.params);
  EXPECT_EQ(backend->name(), "resilient");
}

// auto_configure can pad the subgrid, so A-terms sized from the
// pre-contract geometry no longer match the raster the kernels sample.
// That must be a named error at the backend entry, not an out-of-bounds
// read (regression: quickstart once crashed exactly this way).
TEST(BackendOptionsTest, MismatchedAtermRasterIsRejectedByName) {
  const auto s = ContractSetup::make(1e-5);  // science tier: 24 -> 32
  ASSERT_GT(s.params.subgrid_size, 24u);
  auto stale = sim::make_identity_aterms(1, s.params.nr_stations, 24);
  Array3D<cfloat> grid(kNrPolarizations, s.params.grid_size,
                       s.params.grid_size);
  for (const char* name : {"synchronous", "pipelined"}) {
    try {
      s.backend(name)->grid(s.plan, s.ds.uvw.cview(), s.vis.cview(),
                            s.ds.flag_view(), stale.cview(), grid.view(),
                            obs::null_sink());
      FAIL() << name << " accepted a mismatched A-term raster";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("A-term raster"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BackendOptionsTest, ParseBackendSpecRejectsBadSpellings) {
  EXPECT_THROW(parse_backend_spec("bogus"), Error);
  EXPECT_THROW(parse_backend_spec("resilient:bogus"), Error);
  EXPECT_THROW(parse_backend_spec("resilient:resilient"), Error);
  EXPECT_EQ(parse_backend_spec("sync").executor, "synchronous");
  EXPECT_EQ(parse_backend_spec("async").executor, "pipelined");
  EXPECT_EQ(parse_backend_spec("resilient:synchronous").inner, "synchronous");
}

}  // namespace
