// Internal helpers of the optimized kernels' host code: per-thread scratch
// buffers, geometry precomputation and the A-term/taper prologue and
// epilogue around the loops of kernels/loops.hpp.
//
// Not part of the public API.
#pragma once

#include <cstddef>

#include "common/aligned.hpp"
#include "idg/kernels.hpp"
#include "kernels/loops.hpp"

namespace idg::kernels::internal {

using loops::padded;

/// Item-invariant per-pixel geometry of one (subgrid_size, image_size)
/// configuration: direction cosines l, m and the n term, zero-padded to a
/// SIMD multiple. Every work item of a run reads the same table — only the
/// phase offset depends on the item — so the table is computed once per
/// process and configuration (geometry_table()) and shared, read-only, by
/// all kernel sets and threads.
struct GeometryTable {
  AlignedVector<float> l, m, n;
};

/// Process-wide cache of geometry tables keyed by (subgrid_size,
/// image_size). The returned reference stays valid for the lifetime of the
/// process; safe to call concurrently.
const GeometryTable& geometry_table(const Parameters& params);

/// Per-thread scratch reused across work items.
struct Scratch {
  // Per-pixel, per-item phase offset (the l/m/n arrays live in the shared
  // GeometryTable).
  AlignedVector<float> offset;
  // The degridder's split re/im pixels: [pol][pixel].
  AlignedVector<float> re[4], im[4];
  // Visibilities staged by the optimized gridder: [t][c][pol re/im].
  AlignedVector<float> vis;
  // Phase/sincos batch buffers.
  AlignedVector<float> phase, sin_v, cos_v;
  // A loop's output: gridded pixels or degridded visibilities, 8 floats each.
  AlignedVector<float> out;
  // Per-timestep uvw of the current item.
  AlignedVector<float> u, v, w;
  // Local wavenumbers for the item's channel range.
  AlignedVector<float> k;

  void reserve_pixels(std::size_t n2p) { offset.resize(n2p); }
};

Scratch& scratch();

/// Fills the per-pixel phase-offset array for an item from the shared
/// geometry table, zero-padded to a SIMD multiple.
void fill_geometry(const Parameters& params, const WorkItem& item,
                   const GeometryTable& geom, Scratch& s);

/// Stages the item's uvw coordinates into s.u/s.v/s.w and its channel
/// wavenumbers into s.k.
void stage_uvw_and_wavenumbers(const KernelData& data, const WorkItem& item,
                               Scratch& s);

/// Applies the gridder epilogue to one accumulated pixel: the A-term
/// sandwich A1^H P A2 and the taper, then stores into the subgrid buffer.
void store_gridder_pixel(const Parameters& params, const KernelData& data,
                         const WorkItem& item, std::size_t slot_index,
                         std::size_t y, std::size_t x, const float acc[8],
                         ArrayView<cfloat, 4> subgrids);

/// Applies the degridder prologue: taper + A-terms (A1 P A2^H) over all
/// pixels of the item's subgrid into split re/im arrays in `s`.
void load_degridder_pixels(const Parameters& params, const KernelData& data,
                           const WorkItem& item, std::size_t slot_index,
                           ArrayView<const cfloat, 4> subgrids,
                           std::size_t n2p, Scratch& s);

}  // namespace idg::kernels::internal
