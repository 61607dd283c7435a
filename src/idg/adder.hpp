// Adder and splitter (pipeline step 3, paper §V-B-d).
//
// The adder accumulates Fourier-domain subgrids onto the master grid.
// Subgrids may overlap, so parallelizing over subgrids would race on grid
// pixels. The paper parallelizes over *grid rows* — each thread owns a
// disjoint row band and scans all work items for patches intersecting it
// (kept below as the reference implementation). The default implementation
// sharpens that idea: the grid is partitioned into square tiles, the plan's
// TileBinning maps each tile to the items overlapping it, and threads own
// whole tiles — every thread touches only the items near its tile instead
// of scanning all of them, and tile boundaries sit on cache-line boundaries
// so there is still no sharing and no atomics. Within a tile, items are
// accumulated by ascending WorkItem::order, which makes the per-pixel
// floating-point sum order — and hence the grid, bit for bit — identical to
// the row-band reference on an unsorted plan. The splitter reads the
// (immutable) grid with the same binning so its grid reads are
// tile-sequential.
//
// The grid is a plane stack [planes*4][grid_size][grid_size], stored plane
// by plane (a plain plan is a stack of one plane). Every item reads and
// writes the four polarisations of its own plane, 4*w_plane onwards. Tiles
// are disjoint on every plane and list their items by `order`, so one tile
// loop serves w-stacking too, with each plane's per-pixel sum order the
// same as a serial add in `order`.
#pragma once

#include <span>

#include "common/array.hpp"
#include "common/types.hpp"
#include "idg/parameters.hpp"
#include "idg/plan.hpp"

namespace idg {

/// grid(4*w_plane + pol, y0+y, x0+x) += subgrid(i, pol, y, x) for every
/// item, using a precomputed tile binning of `items` (see
/// Plan::work_group_tiles). `grid` dims: [planes*4][grid_size][grid_size].
/// The tiles run on an OpenMP team, or with `parallel` = false on the
/// calling thread; the grid is bit-identical either way.
void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          const TileBinning& binning,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid, bool parallel = true);

/// Convenience overload: bins `items` on the fly.
void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid);

/// The paper's row-band adder, kept as the semantic reference: tests pin
/// the tiled adder's output bit-for-bit against it.
void add_subgrids_to_grid_rowband(const Parameters& params,
                                  std::span<const WorkItem> items,
                                  ArrayView<const cfloat, 4> subgrids,
                                  ArrayView<cfloat, 3> grid);

/// subgrid(i, pol, y, x) = grid(4*w_plane + pol, y0+y, x0+x) for every
/// item, reading the grid tile by tile.
void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              const TileBinning& binning,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids);

/// Convenience overload: bins `items` on the fly.
void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids);

/// Accumulates one tile's slice of every overlapping item (serial; the
/// parallel drivers above and the pipeline's worker pool call this per
/// tile). Tiles are disjoint, so concurrent calls on distinct tiles of the
/// same grid never race.
void add_tile(const Parameters& params, std::span<const WorkItem> items,
              const TileBinning& binning, std::size_t tile,
              ArrayView<const cfloat, 4> subgrids, ArrayView<cfloat, 3> grid);

/// Copies one tile's slice of the grid into every overlapping item.
void split_tile(const Parameters& params, std::span<const WorkItem> items,
                const TileBinning& binning, std::size_t tile,
                ArrayView<const cfloat, 3> grid,
                ArrayView<cfloat, 4> subgrids);

}  // namespace idg
