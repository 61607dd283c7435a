#include "idg/adder.hpp"

#include <omp.h>

#include "common/error.hpp"
#include "idg/kernels.hpp"

namespace idg {

namespace {
void check_shapes(const Parameters& params, std::span<const WorkItem> items,
                  std::size_t subgrid_count, ArrayView<const cfloat, 3> grid) {
  const std::size_t n = params.subgrid_size;
  check_grid_stack(params, items, grid);
  IDG_CHECK(subgrid_count >= items.size(), "subgrid buffer too small");
  for (const WorkItem& item : items) {
    IDG_CHECK(item.coord_x >= 0 && item.coord_y >= 0 &&
                  item.coord_x + static_cast<int>(n) <=
                      static_cast<int>(params.grid_size) &&
                  item.coord_y + static_cast<int>(n) <=
                      static_cast<int>(params.grid_size),
              "work item patch extends beyond the grid");
  }
}

void check_binning(const Parameters& params, std::span<const WorkItem> items,
                   const TileBinning& binning) {
  IDG_CHECK(binning.tile_size == params.adder_tile_size &&
                binning.tiles_per_row ==
                    (params.grid_size + params.adder_tile_size - 1) /
                        params.adder_tile_size,
            "tile binning does not match parameters");
  IDG_CHECK(binning.tile_offsets.size() == binning.nr_tiles() + 1,
            "tile binning offsets inconsistent");
  for (const std::uint32_t i : binning.item_indices) {
    IDG_CHECK(i < items.size(), "tile binning references item out of range");
  }
}

/// Intersection of the item's patch with the tile, in grid coordinates:
/// [y_lo, y_hi) x [x_lo, x_hi); empty ranges possible for items binned to a
/// neighbouring tile column/row.
struct TileClip {
  std::size_t y_lo, y_hi, x_lo, x_hi;
};

TileClip clip(const Parameters& params, const TileBinning& binning,
              std::size_t tile, const WorkItem& item) {
  const std::size_t t = binning.tile_size;
  const std::size_t n = params.subgrid_size;
  const std::size_t g = params.grid_size;
  const std::size_t ty = tile / binning.tiles_per_row;
  const std::size_t tx = tile % binning.tiles_per_row;
  const std::size_t y0 = static_cast<std::size_t>(item.coord_y);
  const std::size_t x0 = static_cast<std::size_t>(item.coord_x);
  TileClip c;
  c.y_lo = std::max(y0, ty * t);
  c.y_hi = std::min({y0 + n, (ty + 1) * t, g});
  c.x_lo = std::max(x0, tx * t);
  c.x_hi = std::min({x0 + n, (tx + 1) * t, g});
  return c;
}

/// First polarisation index of the item's w-plane in the grid stack.
std::size_t plane_offset(const WorkItem& item) {
  return static_cast<std::size_t>(item.w_plane) * kNrPolarizations;
}
}  // namespace

void add_tile(const Parameters& params, std::span<const WorkItem> items,
              const TileBinning& binning, std::size_t tile,
              ArrayView<const cfloat, 4> subgrids, ArrayView<cfloat, 3> grid) {
  const std::size_t begin = binning.tile_offsets[tile];
  const std::size_t end = binning.tile_offsets[tile + 1];
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i = binning.item_indices[k];
    const WorkItem& item = items[i];
    const TileClip c = clip(params, binning, tile, item);
    if (c.y_lo >= c.y_hi || c.x_lo >= c.x_hi) continue;
    const std::size_t y0 = static_cast<std::size_t>(item.coord_y);
    const std::size_t x0 = static_cast<std::size_t>(item.coord_x);
    const std::size_t p0 = plane_offset(item);
    const std::size_t nx = c.x_hi - c.x_lo;
    for (std::size_t gy = c.y_lo; gy < c.y_hi; ++gy) {
      const std::size_t sy = gy - y0;
      for (std::size_t p = 0; p < kNrPolarizations; ++p) {
        const cfloat* src = &subgrids(i, p, sy, c.x_lo - x0);
        cfloat* dst = &grid(p0 + p, gy, c.x_lo);
        for (std::size_t x = 0; x < nx; ++x) dst[x] += src[x];
      }
    }
  }
}

void split_tile(const Parameters& params, std::span<const WorkItem> items,
                const TileBinning& binning, std::size_t tile,
                ArrayView<const cfloat, 3> grid,
                ArrayView<cfloat, 4> subgrids) {
  const std::size_t begin = binning.tile_offsets[tile];
  const std::size_t end = binning.tile_offsets[tile + 1];
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t i = binning.item_indices[k];
    const WorkItem& item = items[i];
    const TileClip c = clip(params, binning, tile, item);
    if (c.y_lo >= c.y_hi || c.x_lo >= c.x_hi) continue;
    const std::size_t y0 = static_cast<std::size_t>(item.coord_y);
    const std::size_t x0 = static_cast<std::size_t>(item.coord_x);
    const std::size_t p0 = plane_offset(item);
    const std::size_t nx = c.x_hi - c.x_lo;
    for (std::size_t gy = c.y_lo; gy < c.y_hi; ++gy) {
      const std::size_t sy = gy - y0;
      for (std::size_t p = 0; p < kNrPolarizations; ++p) {
        const cfloat* src = &grid(p0 + p, gy, c.x_lo);
        cfloat* dst = &subgrids(i, p, sy, c.x_lo - x0);
        for (std::size_t x = 0; x < nx; ++x) dst[x] = src[x];
      }
    }
  }
}

void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          const TileBinning& binning,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid, bool parallel) {
  check_shapes(params, items, subgrids.dim(0), grid);
  check_binning(params, items, binning);
  const std::size_t nr_tiles = binning.nr_tiles();
  // Tiles near the uv origin hold most items; dynamic scheduling balances
  // the skew while each tile still has exactly one owner.
#pragma omp parallel for schedule(dynamic) if (parallel)
  for (std::size_t tile = 0; tile < nr_tiles; ++tile) {
    add_tile(params, items, binning, tile, subgrids, grid);
  }
}

void add_subgrids_to_grid(const Parameters& params,
                          std::span<const WorkItem> items,
                          ArrayView<const cfloat, 4> subgrids,
                          ArrayView<cfloat, 3> grid) {
  add_subgrids_to_grid(params, items, bin_items_by_tile(params, items),
                       subgrids, grid);
}

void add_subgrids_to_grid_rowband(const Parameters& params,
                                  std::span<const WorkItem> items,
                                  ArrayView<const cfloat, 4> subgrids,
                                  ArrayView<cfloat, 3> grid) {
  check_shapes(params, items, subgrids.dim(0), grid);
  const std::size_t n = params.subgrid_size;
  const std::size_t g = params.grid_size;

#pragma omp parallel
  {
    // Each thread owns a contiguous band of grid rows.
    const int nthreads = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    const std::size_t rows_per_thread = (g + nthreads - 1) / nthreads;
    const std::size_t row_begin =
        static_cast<std::size_t>(tid) * rows_per_thread;
    const std::size_t row_end = std::min(row_begin + rows_per_thread, g);

    for (std::size_t i = 0; i < items.size(); ++i) {
      const WorkItem& item = items[i];
      const std::size_t y0 = static_cast<std::size_t>(item.coord_y);
      const std::size_t x0 = static_cast<std::size_t>(item.coord_x);
      const std::size_t p0 = plane_offset(item);
      const std::size_t y_lo = std::max(y0, row_begin);
      const std::size_t y_hi = std::min(y0 + n, row_end);
      for (std::size_t gy = y_lo; gy < y_hi; ++gy) {
        const std::size_t sy = gy - y0;
        for (std::size_t p = 0; p < kNrPolarizations; ++p) {
          const cfloat* src = &subgrids(i, p, sy, 0);
          cfloat* dst = &grid(p0 + p, gy, x0);
          for (std::size_t x = 0; x < n; ++x) dst[x] += src[x];
        }
      }
    }
  }
}

void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              const TileBinning& binning,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids) {
  check_shapes(params, items, subgrids.dim(0), grid);
  check_binning(params, items, binning);
  const std::size_t nr_tiles = binning.nr_tiles();
#pragma omp parallel for schedule(dynamic)
  for (std::size_t tile = 0; tile < nr_tiles; ++tile) {
    split_tile(params, items, binning, tile, grid, subgrids);
  }
}

void split_subgrids_from_grid(const Parameters& params,
                              std::span<const WorkItem> items,
                              ArrayView<const cfloat, 3> grid,
                              ArrayView<cfloat, 4> subgrids) {
  split_subgrids_from_grid(params, items, bin_items_by_tile(params, items),
                           grid, subgrids);
}

}  // namespace idg
