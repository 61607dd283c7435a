// The full imaging loop of paper Fig 2, with IDG as the gridding and
// degridding engine.
//
// Long multi-cycle jobs can snapshot their state after every completed
// major cycle (MajorCycleConfig::checkpoint_path) and resume from such a
// snapshot (resume_path), bit-identically to the uninterrupted run: the
// checkpoint carries exactly the loop state the next cycle reads (residual
// visibilities, model and residual images, peak history, cycle index), and
// everything else — PSF, plan, model grid — is deterministically recomputed.
// Files use the CRC-guarded, atomically-replaced IDGCKPT1 format
// (common/checkpoint.hpp), so a SIGKILL mid-write can never produce a
// checkpoint that resumes from garbage (DESIGN.md §12).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "clean/hogbom.hpp"
#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/backend.hpp"
#include "idg/plan.hpp"
#include "idg/processor.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace idg::clean {

struct MajorCycleConfig {
  int nr_major_cycles = 3;
  CleanConfig minor;
  /// When non-empty, atomically write an IDGCKPT1 snapshot here after each
  /// completed major cycle.
  std::string checkpoint_path;
  /// When non-empty, load this checkpoint and restart mid-loop instead of
  /// from cycle 0. The result is bit-identical to never having stopped.
  std::string resume_path;
  /// Optional cancellation token, checked between major cycles and threaded
  /// into every grid/degrid call. Wire shard::drain_token() here so a
  /// SIGTERM drain stops the loop after the current checkpointed cycle,
  /// making a coordinator kill resumable bit-identically (DESIGN.md §16).
  const CancelToken* cancel = nullptr;
  /// Optional progress hook, invoked after each fully-completed major cycle
  /// (after its checkpoint, when one is configured) with the number of
  /// cycles done. The idg-server streams these as job status frames and its
  /// drain tests use them to cancel only after a checkpoint exists. Must
  /// not throw.
  std::function<void(int cycles_done)> on_cycle;
};

struct MajorCycleResult {
  Array3D<cfloat> model_image;     ///< accumulated CLEAN model
  Array3D<cfloat> residual_image;  ///< dirty image after the last cycle
  std::vector<float> peak_history; ///< residual Stokes-I peak per cycle
  int total_components = 0;
  obs::MetricsSnapshot metrics;    ///< per-stage metrics (Fig 9 input)
};

/// Everything the major-cycle loop needs to restart after cycle
/// `cycles_done`: the mutable loop state, nothing recomputable.
struct MajorCycleCheckpoint {
  std::int32_t cycles_done = 0;
  std::int32_t total_components = 0;
  std::vector<float> peak_history;
  Array3D<cfloat> model_image;
  Array3D<cfloat> residual_image;
  Array3D<Visibility> residual_vis;
};

/// 8-byte magic of the checkpoint file format.
inline constexpr const char* kCheckpointMagic = "IDGCKPT1";

/// Atomically writes `ckpt` to `path` (write-to-temp + rename, trailing
/// CRC32). Throws idg::Error on IO failure.
void save_checkpoint(const std::string& path,
                     const MajorCycleCheckpoint& ckpt);

/// Loads and validates a checkpoint; throws a named idg::Error when the
/// file is missing, truncated, corrupt (CRC), or not an IDGCKPT1 file.
MajorCycleCheckpoint load_checkpoint(const std::string& path);

/// PSF from the plan's uv coverage: grid unit visibilities and image them,
/// corrected for the backend's taper like every image of the loop below.
/// Peaks at ~1 at pixel (grid_size/2, grid_size/2). Works with any
/// execution backend (synchronous, pipelined, resilient).
Array3D<cfloat> make_psf(const GridderBackend& backend, const Plan& plan,
                         ArrayView<const UVW, 2> uvw,
                         ArrayView<const Jones, 4> aterms,
                         obs::MetricsSink& sink = obs::null_sink());

/// Runs `nr_major_cycles` of image / clean / predict / subtract on a copy
/// of `visibilities`, checkpointing/resuming per `config` (see above).
MajorCycleResult run_major_cycles(const GridderBackend& backend,
                                  const Plan& plan,
                                  ArrayView<const UVW, 2> uvw,
                                  ArrayView<const Visibility, 3> visibilities,
                                  ArrayView<const Jones, 4> aterms,
                                  const MajorCycleConfig& config);

}  // namespace idg::clean
