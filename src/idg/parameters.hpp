// Core IDG configuration shared by the plan, the kernels and the pipelines.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/error.hpp"

namespace idg {

/// Order of the work items inside each work group.
enum class PlanOrdering {
  kArrival,     ///< greedy planner emission order (baseline-major)
  kTileSorted,  ///< Morton order of the grid tile each patch starts in
};

/// What the pipelines do with a bad visibility sample — one that is either
/// marked in the dataset's flag mask (RFI etc.) or non-finite (NaN/Inf).
/// See idg/scrub.hpp for the exact semantics and DESIGN.md §11 for the
/// failure-model contract.
enum class BadSamplePolicy {
  /// Throw a descriptive idg::Error at the first bad sample. Use when any
  /// corruption must stop the run (regression pipelines, golden runs).
  kReject,
  /// Zero the bad samples and keep going; the grid is bit-identical to
  /// gridding a dataset with those samples pre-dropped (adding ±0 to a
  /// partial sum preserves its bits). Default — the behaviour of
  /// flag-aware production gridders.
  kZeroAndContinue,
  /// Drop every work group that covers a bad sample (the whole kernel
  /// launch unit). Coarser than kZeroAndContinue but cheaper: no copy of
  /// the visibility cube is ever made.
  kSkipWorkGroup,
};

inline const char* to_string(BadSamplePolicy policy) {
  switch (policy) {
    case BadSamplePolicy::kReject: return "reject";
    case BadSamplePolicy::kZeroAndContinue: return "zero_and_continue";
    case BadSamplePolicy::kSkipWorkGroup: return "skip_work_group";
  }
  return "invalid";
}

/// Parses the CLI/config spelling of a policy; nullopt for unknown names.
inline std::optional<BadSamplePolicy> bad_sample_policy_from_string(
    std::string_view name) {
  if (name == "reject") return BadSamplePolicy::kReject;
  if (name == "zero_and_continue" || name == "zero")
    return BadSamplePolicy::kZeroAndContinue;
  if (name == "skip_work_group" || name == "skip")
    return BadSamplePolicy::kSkipWorkGroup;
  return std::nullopt;
}

/// Precision of the gridder/degridder phase math and polarization
/// accumulators. Subgrid storage is cfloat either way; kDouble evaluates
/// phases, phasors and the accumulation in double before rounding once at
/// the end, removing the ~1.5e-3 float phase-error floor (DESIGN.md §13).
enum class Accumulation {
  kSingle,  ///< float phases/accumulators — the paper's GPU configuration
  kDouble,  ///< double phases/accumulators — required below epsilon ~5e-3
};

inline const char* to_string(Accumulation accumulation) {
  switch (accumulation) {
    case Accumulation::kSingle: return "single";
    case Accumulation::kDouble: return "double";
  }
  return "invalid";
}

/// Anti-aliasing taper family applied to every subgrid in the image domain.
enum class TaperKind {
  /// Schwab's prolate spheroidal (m = 6, alpha = 1) — CASA/ASTRON-IDG
  /// default. Out-of-band leakage ~3e-4: fine down to epsilon ~1e-3.
  kPSWF,
  /// Exponential of semicircle (ducc wgridder): exp(beta*(sqrt(1-nu^2)-1))
  /// over Parameters::kernel_size uv cells. Leakage falls exponentially in
  /// the support, reaching ~3e-6 at kernel_size 12 — the science tier.
  kES,
};

inline const char* to_string(TaperKind kind) {
  switch (kind) {
    case TaperKind::kPSWF: return "pswf";
    case TaperKind::kES: return "es";
  }
  return "invalid";
}

/// Calibrated accuracy constants of the epsilon contract (DESIGN.md §13).
/// The floors carry a ~3x safety margin over the dirty-image l2 errors
/// measured against a direct double-precision DFT on grids of 128-512.
namespace accuracy {
/// Requests must satisfy kEpsilonFloor <= epsilon < kEpsilonCeiling.
inline constexpr double kEpsilonCeiling = 1.0;
/// Tightest provable contract: double accumulation + ES taper with
/// kernel_size >= 12 measures l2 <= ~3.1e-6.
inline constexpr double kEpsilonFloor = 1e-5;
/// Float phase math floors at l2 ~1.6e-3 regardless of the sincos path
/// (the analogue of ducc's "singleprec and epsilon < 5e-5" skip — our
/// visibilities, grids and uvw are all float32, so the floor sits higher).
inline constexpr double kSinglePrecisionFloor = 5e-3;
/// The PSWF taper's out-of-band leakage floors at l2 ~2.9e-4.
inline constexpr double kPswfFloor = 1e-3;
}  // namespace accuracy

/// Largest accepted grid_size and adder_tile_size. A grid this size
/// already holds 2^34 complex floats per plane (128 GiB). The cap keeps
/// pixel coordinates, tile sizes and tile counts inside `int` and bounds
/// the plan's tile histograms, whatever a decoded message claims.
inline constexpr std::size_t kMaxGridSize = std::size_t{1} << 16;

/// Static configuration of one gridding/degridding run.
///
/// Geometry convention (DESIGN.md §6): the master grid has `grid_size`
/// pixels per side and spans uv cells of 1/image_size wavelengths; a subgrid
/// is a `subgrid_size`^2 patch of that grid whose image-domain
/// representation covers the full field of view at low resolution.
struct Parameters {
  std::size_t grid_size = 512;     ///< master grid pixels per side (paper: 2048)
  std::size_t subgrid_size = 24;   ///< subgrid pixels per side (paper: 24)
  double image_size = 0.01;        ///< field of view in direction cosines
  int nr_stations = 0;             ///< stations referenced by the baselines

  /// uv-cells reserved around the visibilities of a subgrid for the taper /
  /// A-term / W-term support (paper Fig 5: the blue circles must also be
  /// covered). Larger values improve accuracy, smaller values pack more
  /// visibilities per subgrid.
  std::size_t kernel_size = 8;

  /// Maximum timesteps per work item (the paper's architecture-specific
  /// T-tilde-max, §V-A) — bounds per-subgrid compute and memory.
  int max_timesteps_per_subgrid = 128;

  /// Timesteps per A-term slot; work items never span two slots.
  int aterm_interval = 256;

  /// Number of work items grouped into one work group (the unit the
  /// gridder/degridder kernels are invoked on, Fig 6).
  std::size_t work_group_size = 256;

  /// Within-group item order. Tile sorting makes consecutive subgrids land
  /// in nearby grid rows so the adder's per-tile item lists stay short and
  /// its grid traffic stays local; kArrival reproduces the pre-sorting
  /// behaviour for ablation (bench --unsorted).
  PlanOrdering plan_ordering = PlanOrdering::kTileSorted;

  /// Side length of the square grid tiles the adder/splitter partition the
  /// master grid into. Each tile is owned by exactly one thread; a multiple
  /// of 8 complex floats keeps tile boundaries on 64-byte cache lines so
  /// neighbouring tiles never share a line (no false sharing, no atomics).
  std::size_t adder_tile_size = 64;

  /// How the pipelines treat flagged / non-finite visibility samples
  /// (idg/scrub.hpp applies it before the kernels run).
  BadSamplePolicy bad_sample_policy = BadSamplePolicy::kZeroAndContinue;

  /// Per-run deadline in milliseconds; 0 = none. When set, the executors
  /// construct a deadline CancelToken for the run and poll it cooperatively
  /// at catalogued check sites (per work group, per pipeline ticket, in
  /// queue wait loops), so an over-deadline run aborts with a descriptive
  /// CancelledError within bounded time instead of hanging (DESIGN.md §12).
  std::uint32_t deadline_ms = 0;

  /// Requested dirty-image l2 accuracy contract (DESIGN.md §13): the
  /// configuration must keep the l2 error against a direct DFT below this
  /// value. Normally set through auto_configure(), which also derives the
  /// taper / kernel_size / subgrid padding / accumulation; when set by
  /// hand, validated() proves the rest of the configuration can honour it
  /// (error_floor() <= epsilon) and rejects it otherwise. nullopt — the
  /// default — keeps the pre-contract behaviour bit-identical.
  std::optional<double> epsilon;

  /// Gridder/degridder phase + accumulation precision (see Accumulation).
  /// Honoured by the reference kernel set; the optimized kernel variants
  /// are single-precision by construction.
  Accumulation accumulation = Accumulation::kSingle;

  /// Anti-aliasing taper family (see TaperKind). The ES taper's support is
  /// kernel_size uv cells with shape beta = es_beta_per_cell*kernel_size/2.
  TaperKind taper = TaperKind::kPSWF;

  /// ES shape parameter per uv cell of support (ducc wgridder uses ~2.3
  /// at these supports); ignored for the PSWF taper.
  double es_beta_per_cell = 2.3;

  /// Conservative lower bound on the dirty-image l2 error this
  /// configuration can achieve (the calibrated model of DESIGN.md §13).
  /// validated() rejects an epsilon below this floor.
  double error_floor() const {
    if (accumulation == Accumulation::kSingle)
      return accuracy::kSinglePrecisionFloor;
    if (taper == TaperKind::kPSWF) return accuracy::kPswfFloor;
    // ES + double: leakage falls with the uv support; the tightest tier
    // additionally needs subgrid room for the wider taper (measured: the
    // correction amplifies float storage noise when the support crowds the
    // subgrid).
    if (kernel_size >= 12 && subgrid_size >= 2 * kernel_size) return 1e-5;
    if (kernel_size >= 10) return 3e-5;
    if (kernel_size >= 8) return 1e-4;
    return accuracy::kPswfFloor;  // narrow ES supports: uncalibrated
  }

  /// Derives the accuracy-related settings (taper, kernel_size, subgrid
  /// padding, accumulation) from one requested epsilon and records the
  /// contract in `epsilon` (defined in idg/accuracy.cpp; the tier table
  /// lives in idg/accuracy.hpp). Explicit geometry (grid_size, image_size)
  /// is never touched; subgrid_size only ever grows. Throws idg::Error for
  /// an unachievable epsilon. Returns *this for builder-style chaining.
  Parameters& auto_configure(double requested_epsilon);

  /// Checks every setting for consistency and returns a descriptive
  /// idg::Error for the first violation, or std::nullopt when the
  /// configuration is valid. Lets callers report bad configurations at the
  /// API boundary instead of tripping an assert deep in the kernels.
  std::optional<Error> validated() const {
    const auto fail = [](const auto&... parts) {
      std::ostringstream oss;
      oss << "invalid idg::Parameters: ";
      (oss << ... << parts);
      return std::optional<Error>(Error(oss.str()));
    };
    if (grid_size < 2) return fail("grid_size (", grid_size, ") must be >= 2");
    if (grid_size > kMaxGridSize)
      return fail("grid_size (", grid_size, ") must be <= ", kMaxGridSize);
    if (subgrid_size < 4)
      return fail("subgrid_size (", subgrid_size, ") must be >= 4");
    if (subgrid_size >= grid_size)
      return fail("subgrid_size (", subgrid_size,
                  ") must be smaller than grid_size (", grid_size, ")");
    if (!(image_size > 0.0) || !std::isfinite(image_size))
      return fail("image_size (", image_size, ") must be positive and finite");
    if (kernel_size < 1 || kernel_size >= subgrid_size)
      return fail("kernel_size (", kernel_size,
                  ") must satisfy 1 <= kernel_size < subgrid_size (",
                  subgrid_size, ")");
    if (max_timesteps_per_subgrid <= 0)
      return fail("max_timesteps_per_subgrid (", max_timesteps_per_subgrid,
                  ") must be positive");
    if (aterm_interval <= 0)
      return fail("aterm_interval (", aterm_interval, ") must be positive");
    if (work_group_size == 0) return fail("work_group_size must be positive");
    if (adder_tile_size > kMaxGridSize)
      return fail("adder_tile_size (", adder_tile_size, ") must be <= ",
                  kMaxGridSize);
    if (adder_tile_size < 8 || adder_tile_size % 8 != 0)
      return fail("adder_tile_size (", adder_tile_size,
                  ") must be a positive multiple of 8 (cache-line aligned "
                  "tile boundaries)");
    // Enum members arrive from casts (config files, FFI); reject values
    // outside the defined range instead of silently hitting a default.
    if (const int p = static_cast<int>(plan_ordering); p < 0 || p > 1)
      return fail("plan_ordering enum value (", p, ") out of range");
    if (const int p = static_cast<int>(bad_sample_policy); p < 0 || p > 2)
      return fail("bad_sample_policy enum value (", p,
                  ") out of range (0=reject, 1=zero_and_continue, "
                  "2=skip_work_group)");
    if (const int a = static_cast<int>(accumulation); a < 0 || a > 1)
      return fail("accumulation enum value (", a,
                  ") out of range (0=single, 1=double)");
    if (const int t = static_cast<int>(taper); t < 0 || t > 1)
      return fail("taper enum value (", t, ") out of range (0=pswf, 1=es)");
    if (taper == TaperKind::kES &&
        (!(es_beta_per_cell > 0.0) || !(es_beta_per_cell <= 8.0)))
      return fail("es_beta_per_cell (", es_beta_per_cell,
                  ") must be in (0, 8] for the ES taper");
    // The epsilon contract (DESIGN.md §13): the request must be in range
    // and achievable by the configured taper/precision, so a caller who
    // set the knobs by hand gets a proof-or-rejection at the API boundary.
    if (epsilon.has_value()) {
      const double eps = *epsilon;
      if (!std::isfinite(eps) || !(eps > 0.0) ||
          eps >= accuracy::kEpsilonCeiling)
        return fail("epsilon (", eps, ") must be in [",
                    accuracy::kEpsilonFloor, ", ", accuracy::kEpsilonCeiling,
                    ")");
      if (eps < accuracy::kEpsilonFloor)
        return fail("epsilon (", eps, ") is below the achievable floor (",
                    accuracy::kEpsilonFloor,
                    "): no calibrated configuration reaches it");
      if (accumulation == Accumulation::kSingle &&
          eps < accuracy::kSinglePrecisionFloor)
        return fail("epsilon (", eps,
                    ") is below the single-precision floor (",
                    accuracy::kSinglePrecisionFloor,
                    "); use Accumulation::kDouble (auto_configure does)");
      if (eps < error_floor())
        return fail("epsilon (", eps, ") is below the error floor (",
                    error_floor(), ") of this configuration (taper=",
                    to_string(taper), ", kernel_size=", kernel_size,
                    ", subgrid_size=", subgrid_size,
                    "); use auto_configure(epsilon)");
    }
    return std::nullopt;
  }

  /// Throws the validated() error, if any.
  void validate() const {
    if (auto error = validated()) throw *error;
  }

  /// uv cell size in wavelengths.
  double cell_size() const { return 1.0 / image_size; }

  /// Direction cosine of subgrid pixel x (pixel N/2 is the phase centre).
  float subgrid_lm(std::size_t x) const {
    return static_cast<float>(
        (static_cast<double>(x) - static_cast<double>(subgrid_size) / 2.0) *
        image_size / static_cast<double>(subgrid_size));
  }

  /// Direction cosine of subgrid pixel x in full double precision (the
  /// Accumulation::kDouble kernel path).
  double subgrid_lm_d(std::size_t x) const {
    return (static_cast<double>(x) - static_cast<double>(subgrid_size) / 2.0) *
           image_size / static_cast<double>(subgrid_size);
  }

  /// Direction cosine of master-grid pixel x.
  float grid_lm(std::size_t x) const {
    return static_cast<float>(
        (static_cast<double>(x) - static_cast<double>(grid_size) / 2.0) *
        image_size / static_cast<double>(grid_size));
  }
};

}  // namespace idg
