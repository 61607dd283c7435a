// Kernel interface: the gridder (Algorithm 1) and degridder (Algorithm 2)
// operating on one work group.
//
// The pipelines (pipeline.hpp) are kernel-agnostic: they accept any
// `KernelSet` so that the reference implementation (kernels_ref.cpp, a
// direct transcription of the paper's pseudocode) and the optimized CPU
// implementation (src/kernels/, with visibility batching, split re/im
// arrays, vectorized sincos and SIMD reductions — paper §V-B) are
// interchangeable and can be validated against each other.
#pragma once

#include <span>
#include <string>

#include "common/array.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"

namespace idg {

/// Read-only inputs shared by the gridder and degridder kernels.
struct KernelData {
  ArrayView<const UVW, 2> uvw;           ///< [baseline][time], meters
  std::span<const float> wavenumbers;    ///< 2*pi*f_c/c per channel
  ArrayView<const Jones, 4> aterms;      ///< [slot][station][y][x]
  ArrayView<const float, 2> taper;       ///< [y][x], subgrid raster
};

/// The kernels sample A-terms on the subgrid raster; a mismatched raster
/// (easy to hit when auto_configure pads the subgrid) would read out of
/// bounds, so every backend rejects it by name at its entry point.
inline void check_aterm_raster(ArrayView<const Jones, 4> aterms,
                               std::size_t subgrid_size) {
  IDG_CHECK(aterms.dim(2) == subgrid_size && aterms.dim(3) == subgrid_size,
            "A-term raster is " << aterms.dim(2) << "x" << aterms.dim(3)
                                << " but subgrid_size is " << subgrid_size
                                << "; size A-terms with params.subgrid_size "
                                   "after auto_configure");
}

/// Every executor's grid is a plane stack [planes*4][grid][grid], stored
/// plane by plane; a plain plan is a stack of one plane. The adder and
/// splitter route each work item to the four polarisations of its
/// `w_plane`, so a stack of the wrong shape, or one without the plan's
/// largest w-plane, would be indexed out of bounds: every backend rejects
/// it by name at its entry point, before any work starts.
inline void check_grid_stack(const Parameters& params,
                             std::span<const WorkItem> items,
                             ArrayView<const cfloat, 3> grid) {
  constexpr std::size_t kPols = kNrPolarizations;
  IDG_CHECK(grid.dim(0) >= kPols && grid.dim(0) % kPols == 0 &&
                grid.dim(1) == params.grid_size &&
                grid.dim(2) == params.grid_size,
            "grid is " << grid.dim(0) << "x" << grid.dim(1) << "x"
                       << grid.dim(2) << " but must be a [planes*4]["
                       << params.grid_size << "][" << params.grid_size
                       << "] plane stack");
  const std::size_t planes = grid.dim(0) / kPols;
  for (const WorkItem& item : items) {
    IDG_CHECK(item.w_plane >= 0 &&
                  static_cast<std::size_t>(item.w_plane) < planes,
              "work item routes to w-plane "
                  << item.w_plane << " but the grid stack holds " << planes
                  << " plane(s); allocate one plane per w-plane "
                     "(WStackProcessor::make_grids)");
  }
}

/// A gridder/degridder implementation pair.
class KernelSet {
 public:
  virtual ~KernelSet() = default;
  virtual std::string name() const = 0;

  /// Whether the set accumulates in `accumulation` when
  /// Parameters::accumulation asks for it. A set that does not would run
  /// another precision silently, so make_backend rejects it by name
  /// (check_accumulation).
  virtual bool implements(Accumulation accumulation) const = 0;

  /// Algorithm 1 for every work item: accumulates the phase-shifted
  /// visibilities into image-domain subgrid pixels, then applies the A-term
  /// sandwich (A_p^H S A_q) and the taper.
  /// `subgrids` dims: [nr_items][4][subgrid][subgrid].
  virtual void grid(const Parameters& params, const KernelData& data,
                    std::span<const WorkItem> items,
                    ArrayView<const Visibility, 3> visibilities,
                    ArrayView<cfloat, 4> subgrids) const = 0;

  /// Algorithm 2 for every work item: applies taper and A-terms
  /// (A_p S A_q^H) to the image-domain subgrids, then predicts every
  /// covered visibility as a phase-weighted pixel sum. Overwrites the
  /// covered (baseline, time, channel) entries of `visibilities`.
  virtual void degrid(const Parameters& params, const KernelData& data,
                      std::span<const WorkItem> items,
                      ArrayView<const cfloat, 4> subgrids,
                      ArrayView<Visibility, 3> visibilities) const = 0;
};

/// Rejects, by name, a kernel set that does not implement the parameters'
/// accumulation precision (a single-precision set under an epsilon whose
/// tier needs double accumulation would miss the contract silently).
inline void check_accumulation(const KernelSet& kernels,
                               const Parameters& params) {
  IDG_CHECK(kernels.implements(params.accumulation),
            "kernel set '" << kernels.name() << "' does not implement "
                           << to_string(params.accumulation)
                           << "-precision accumulation, which the parameters "
                              "ask for; choose 'reference' or 'tuned', or "
                              "the tier's accuracy::preferred_kernel_set");
}

/// The straightforward scalar implementation; single source of truth for
/// correctness.
const KernelSet& reference_kernels();

}  // namespace idg
