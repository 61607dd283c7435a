#include "idg/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

#include "common/error.hpp"

namespace idg {

namespace {

/// Running 2-D bounding box in uv pixel (cell) coordinates.
struct Bbox {
  double u_min = std::numeric_limits<double>::infinity();
  double u_max = -std::numeric_limits<double>::infinity();
  double v_min = std::numeric_limits<double>::infinity();
  double v_max = -std::numeric_limits<double>::infinity();

  void include(double u, double v) {
    u_min = std::min(u_min, u);
    u_max = std::max(u_max, u);
    v_min = std::min(v_min, v);
    v_max = std::max(v_max, v);
  }
  double extent() const { return std::max(u_max - u_min, v_max - v_min); }
};

/// Interleaves the low 16 bits of x and y (Morton / Z-order code). Tile
/// coordinates fit easily: even a 2^20-pixel grid has < 2^16 tiles per side.
std::uint32_t morton(std::uint32_t x, std::uint32_t y) {
  auto spread = [](std::uint32_t v) {
    v &= 0xffffu;
    v = (v | (v << 8)) & 0x00ff00ffu;
    v = (v | (v << 4)) & 0x0f0f0f0fu;
    v = (v | (v << 2)) & 0x33333333u;
    v = (v | (v << 1)) & 0x55555555u;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}

}  // namespace

TileBinning bin_items_by_tile(const Parameters& params,
                              std::span<const WorkItem> items) {
  TileBinning binning;
  binning.tile_size = params.adder_tile_size;
  binning.tiles_per_row =
      (params.grid_size + binning.tile_size - 1) / binning.tile_size;
  const std::size_t nr_tiles = binning.nr_tiles();
  const int n = static_cast<int>(params.subgrid_size);
  const int t = static_cast<int>(binning.tile_size);

  // Visit span positions by ascending WorkItem::order so every tile's list
  // comes out in canonical accumulation order (ties — e.g. hand-built items
  // with order == 0 — fall back to span position).
  std::vector<std::uint32_t> by_order(items.size());
  for (std::uint32_t i = 0; i < by_order.size(); ++i) by_order[i] = i;
  std::stable_sort(by_order.begin(), by_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return items[a].order < items[b].order;
                   });

  auto tile_range = [&](int c0) {  // tiles covered by [c0, c0 + n)
    return std::pair<int, int>{c0 / t, (c0 + n - 1) / t};
  };

  // An out-of-grid patch would index past the tile histogram below, so it
  // must be rejected here — hand-built and decoded items reach this path
  // without going through Plan's own placement checks. The bound is
  // written as coord <= grid - n, which cannot overflow (n < grid).
  const int last = static_cast<int>(params.grid_size) - n;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& item = items[i];
    IDG_CHECK(item.coord_x >= 0 && item.coord_y >= 0 &&
                  item.coord_x <= last && item.coord_y <= last,
              "work item " << i << " subgrid patch at (" << item.coord_x
                           << ", " << item.coord_y << ") size " << n
                           << " lies outside the " << params.grid_size
                           << "-pixel grid");
  }

  binning.tile_offsets.assign(nr_tiles + 1, 0);
  for (const WorkItem& item : items) {
    const auto [tx0, tx1] = tile_range(item.coord_x);
    const auto [ty0, ty1] = tile_range(item.coord_y);
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        const std::size_t tile =
            static_cast<std::size_t>(ty) * binning.tiles_per_row +
            static_cast<std::size_t>(tx);
        ++binning.tile_offsets[tile + 1];
      }
    }
  }
  for (std::size_t tile = 0; tile < nr_tiles; ++tile) {
    binning.tile_offsets[tile + 1] += binning.tile_offsets[tile];
  }

  binning.item_indices.resize(binning.tile_offsets[nr_tiles]);
  std::vector<std::uint32_t> cursor(binning.tile_offsets.begin(),
                                    binning.tile_offsets.end() - 1);
  for (const std::uint32_t i : by_order) {
    const WorkItem& item = items[i];
    const auto [tx0, tx1] = tile_range(item.coord_x);
    const auto [ty0, ty1] = tile_range(item.coord_y);
    for (int ty = ty0; ty <= ty1; ++ty) {
      for (int tx = tx0; tx <= tx1; ++tx) {
        const std::size_t tile =
            static_cast<std::size_t>(ty) * binning.tiles_per_row +
            static_cast<std::size_t>(tx);
        binning.item_indices[cursor[tile]++] = i;
      }
    }
  }
  return binning;
}

Plan::Plan(const Parameters& params, const Array2D<UVW>& uvw,
           const std::vector<double>& frequencies,
           const std::vector<Baseline>& baselines,
           const WPlaneModel* wplanes)
    : params_(params) {
  params_.validate();
  IDG_CHECK(!frequencies.empty(), "frequency list is empty");
  IDG_CHECK(uvw.dim(0) == baselines.size(),
            "uvw/baseline count mismatch: " << uvw.dim(0) << " vs "
                                            << baselines.size());
  IDG_CHECK(std::is_sorted(frequencies.begin(), frequencies.end()),
            "channel frequencies must be ascending");
  for (const Baseline& bl : baselines) {
    IDG_CHECK(bl.station1 >= 0 && bl.station1 < params_.nr_stations &&
                  bl.station2 >= 0 && bl.station2 < params_.nr_stations,
              "baseline references station outside [0, nr_stations)");
  }

  wavenumbers_.resize(frequencies.size());
  for (std::size_t c = 0; c < frequencies.size(); ++c) {
    wavenumbers_[c] = static_cast<float>(2.0 * std::numbers::pi *
                                         frequencies[c] / kSpeedOfLight);
  }

  for (std::size_t b = 0; b < baselines.size(); ++b) {
    plan_baseline(b, uvw, frequencies, baselines[b], wplanes);
  }

  // Stamp the emission rank before any reordering: it is the canonical
  // accumulation order the adder restores per tile (see WorkItem::order).
  for (std::size_t i = 0; i < items_.size(); ++i) {
    items_[i].order = static_cast<std::uint32_t>(i);
  }

  if (params_.plan_ordering == PlanOrdering::kTileSorted) {
    // Sort each work group's items along the Morton curve of the tile their
    // patch starts in, so consecutive subgrids hit nearby grid rows in the
    // adder. The sort stays within groups: kernel-stage batching (Fig 6)
    // and the group <-> buffer mapping of the pipeline are untouched.
    const std::size_t t = params_.adder_tile_size;
    auto tile_key = [&](const WorkItem& item) {
      return morton(static_cast<std::uint32_t>(item.coord_x) /
                        static_cast<std::uint32_t>(t),
                    static_cast<std::uint32_t>(item.coord_y) /
                        static_cast<std::uint32_t>(t));
    };
    for (std::size_t g = 0; g < nr_work_groups(); ++g) {
      const std::size_t begin = g * params_.work_group_size;
      const std::size_t end =
          std::min(begin + params_.work_group_size, items_.size());
      std::sort(items_.begin() + static_cast<std::ptrdiff_t>(begin),
                items_.begin() + static_cast<std::ptrdiff_t>(end),
                [&](const WorkItem& a, const WorkItem& b) {
                  const std::uint32_t ka = tile_key(a), kb = tile_key(b);
                  if (ka != kb) return ka < kb;
                  if (a.coord_y != b.coord_y) return a.coord_y < b.coord_y;
                  if (a.coord_x != b.coord_x) return a.coord_x < b.coord_x;
                  return a.order < b.order;
                });
    }
  }

  group_tiles_.reserve(nr_work_groups());
  for (std::size_t g = 0; g < nr_work_groups(); ++g) {
    group_tiles_.push_back(bin_items_by_tile(params_, work_group(g)));
  }
}

Plan Plan::from_parts(const Parameters& params, std::vector<WorkItem> items,
                      std::vector<float> wavenumbers,
                      std::size_t planned_visibilities,
                      std::size_t dropped_visibilities) {
  Plan plan;
  plan.params_ = params;
  plan.params_.validate();
  IDG_CHECK(!wavenumbers.empty(), "plan parts carry no wavenumbers");
  plan.items_ = std::move(items);
  plan.wavenumbers_ = std::move(wavenumbers);
  plan.planned_visibilities_ = planned_visibilities;
  plan.dropped_visibilities_ = dropped_visibilities;
  plan.group_tiles_.reserve(plan.nr_work_groups());
  for (std::size_t g = 0; g < plan.nr_work_groups(); ++g) {
    plan.group_tiles_.push_back(
        bin_items_by_tile(plan.params_, plan.work_group(g)));
  }
  return plan;
}

void Plan::plan_baseline(std::size_t bl_index, const Array2D<UVW>& uvw,
                         const std::vector<double>& frequencies,
                         const Baseline& baseline,
                         const WPlaneModel* wplanes) {
  const int nr_time = static_cast<int>(uvw.dim(1));
  const int nr_chan = static_cast<int>(frequencies.size());
  // uv coordinate of (t, c) in grid cells: uvw[m] * f/c * image_size.
  auto u_pix = [&](int t, int c) {
    return uvw(bl_index, static_cast<std::size_t>(t)).u *
           frequencies[static_cast<std::size_t>(c)] / kSpeedOfLight *
           params_.image_size;
  };
  auto v_pix = [&](int t, int c) {
    return uvw(bl_index, static_cast<std::size_t>(t)).v *
           frequencies[static_cast<std::size_t>(c)] / kSpeedOfLight *
           params_.image_size;
  };

  // Members must fit a subgrid after inflating by the kernel support.
  const double max_extent =
      static_cast<double>(params_.subgrid_size - params_.kernel_size);

  // --- channel grouping ---------------------------------------------------
  // A group [c0, c1] is usable if, at every timestep, the radial spread of
  // its endpoint channels consumes at most half of the available extent,
  // leaving the other half for accumulating timesteps. Channel coordinates
  // are linear in frequency, so the endpoints bound the whole group.
  auto group_fits = [&](int c0, int c1) {
    for (int t = 0; t < nr_time; ++t) {
      const double du = u_pix(t, c1) - u_pix(t, c0);
      const double dv = v_pix(t, c1) - v_pix(t, c0);
      if (std::max(std::abs(du), std::abs(dv)) > 0.5 * max_extent)
        return false;
    }
    return true;
  };

  std::vector<std::pair<int, int>> groups;  // [begin, count]
  for (int c0 = 0; c0 < nr_chan;) {
    int c1 = c0;
    while (c1 + 1 < nr_chan && group_fits(c0, c1 + 1)) ++c1;
    groups.emplace_back(c0, c1 - c0 + 1);
    c0 = c1 + 1;
  }

  // --- greedy time accumulation per channel group ---------------------------
  for (const auto& [ch_begin, ch_count] : groups) {
    const int ch_last = ch_begin + ch_count - 1;
    int t = 0;
    while (t < nr_time) {
      const int slot = t / params_.aterm_interval;
      const int slot_end = (slot + 1) * params_.aterm_interval;

      Bbox box;
      int t_end = t;
      while (t_end < nr_time && t_end < slot_end &&
             t_end - t < params_.max_timesteps_per_subgrid) {
        Bbox candidate = box;
        candidate.include(u_pix(t_end, ch_begin), v_pix(t_end, ch_begin));
        candidate.include(u_pix(t_end, ch_last), v_pix(t_end, ch_last));
        if (candidate.extent() > max_extent && t_end > t) break;
        box = candidate;
        ++t_end;
      }
      IDG_ASSERT(t_end > t, "greedy planner failed to make progress");

      WorkItem item;
      item.baseline = static_cast<int>(bl_index);
      item.station1 = baseline.station1;
      item.station2 = baseline.station2;
      item.time_begin = t;
      item.nr_timesteps = t_end - t;
      item.channel_begin = ch_begin;
      item.nr_channels = ch_count;
      item.aterm_slot = slot;
      item.w_offset = 0.0f;
      item.w_plane = 0;
      if (wplanes != nullptr && wplanes->nr_planes() > 1) {
        // Assign the plane nearest the item's mean w at the mid frequency;
        // the subgrid then only corrects the bounded residual w - w_offset.
        double w_sum = 0.0;
        for (int tt = t; tt < t_end; ++tt)
          w_sum += uvw(bl_index, static_cast<std::size_t>(tt)).w;
        const double f_mid =
            0.5 * (frequencies[static_cast<std::size_t>(ch_begin)] +
                   frequencies[static_cast<std::size_t>(ch_last)]);
        const double w_mean =
            w_sum / (t_end - t) * f_mid / kSpeedOfLight;
        item.w_plane = wplanes->plane_of(w_mean);
        item.w_offset = wplanes->center(item.w_plane);
      }

      // Patch origin: centre the bounding box within the subgrid.
      const double center_u = 0.5 * (box.u_min + box.u_max) +
                              static_cast<double>(params_.grid_size) / 2.0;
      const double center_v = 0.5 * (box.v_min + box.v_max) +
                              static_cast<double>(params_.grid_size) / 2.0;
      item.coord_x = static_cast<int>(std::lround(center_u)) -
                     static_cast<int>(params_.subgrid_size) / 2;
      item.coord_y = static_cast<int>(std::lround(center_v)) -
                     static_cast<int>(params_.subgrid_size) / 2;

      const bool in_grid =
          item.coord_x >= 0 && item.coord_y >= 0 &&
          item.coord_x + static_cast<int>(params_.subgrid_size) <=
              static_cast<int>(params_.grid_size) &&
          item.coord_y + static_cast<int>(params_.subgrid_size) <=
              static_cast<int>(params_.grid_size);
      if (in_grid) {
        planned_visibilities_ += item.nr_visibilities();
        items_.push_back(item);
      } else {
        dropped_visibilities_ += item.nr_visibilities();
      }
      t = t_end;
    }
  }
}

std::size_t Plan::nr_work_groups() const {
  // Ceiling division that cannot wrap, whatever work_group_size holds.
  return items_.empty() ? 0
                        : (items_.size() - 1) / params_.work_group_size + 1;
}

std::span<const WorkItem> Plan::work_group(std::size_t g) const {
  IDG_CHECK(g < nr_work_groups(), "work group index out of range");
  const std::size_t begin = g * params_.work_group_size;
  const std::size_t end =
      std::min(begin + params_.work_group_size, items_.size());
  return {items_.data() + begin, end - begin};
}

const TileBinning& Plan::work_group_tiles(std::size_t g) const {
  IDG_CHECK(g < group_tiles_.size(), "work group index out of range");
  return group_tiles_[g];
}

double Plan::avg_visibilities_per_subgrid() const {
  return items_.empty() ? 0.0
                        : static_cast<double>(planned_visibilities_) /
                              static_cast<double>(items_.size());
}

}  // namespace idg
