#include "kernels/internal.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

namespace idg::kernels::internal {

namespace {
constexpr float kTwoPi = static_cast<float>(2.0 * std::numbers::pi);
}

Scratch& scratch() {
  static thread_local Scratch s;
  return s;
}

const GeometryTable& geometry_table(const Parameters& params) {
  // std::map keeps node addresses stable, so the returned references
  // survive later insertions; entries are never erased.
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, double>, GeometryTable> cache;

  std::lock_guard lock(mutex);
  const auto [it, inserted] =
      cache.try_emplace({params.subgrid_size, params.image_size});
  GeometryTable& geom = it->second;
  if (inserted) {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2p = padded(n * n);
    geom.l.assign(n2p, 0.0f);
    geom.m.assign(n2p, 0.0f);
    geom.n.assign(n2p, 0.0f);
    for (std::size_t y = 0; y < n; ++y) {
      const float mm = params.subgrid_lm(y);
      for (std::size_t x = 0; x < n; ++x) {
        const float ll = params.subgrid_lm(x);
        const std::size_t idx = y * n + x;
        geom.l[idx] = ll;
        geom.m[idx] = mm;
        geom.n[idx] = compute_n(ll, mm);
      }
    }
  }
  return geom;
}

void fill_geometry(const Parameters& params, const WorkItem& item,
                   const GeometryTable& geom, Scratch& s) {
  const std::size_t n = params.subgrid_size;
  const std::size_t n2p = padded(n * n);
  s.reserve_pixels(n2p);

  const float cell_scale = kTwoPi / static_cast<float>(params.image_size);
  const float u0 = (static_cast<float>(item.coord_x) +
                    static_cast<float>(n) / 2.0f -
                    static_cast<float>(params.grid_size) / 2.0f) *
                   cell_scale;
  const float v0 = (static_cast<float>(item.coord_y) +
                    static_cast<float>(n) / 2.0f -
                    static_cast<float>(params.grid_size) / 2.0f) *
                   cell_scale;
  const float w0 = kTwoPi * item.w_offset;

  // The table's padding is zero, so the offsets' padding comes out zero
  // too — one branch-free SIMD-friendly loop over the padded extent.
  const float* const lp = geom.l.data();
  const float* const mp = geom.m.data();
  const float* const np = geom.n.data();
  for (std::size_t idx = 0; idx < n2p; ++idx) {
    s.offset[idx] = u0 * lp[idx] + v0 * mp[idx] + w0 * np[idx];
  }
}

void stage_uvw_and_wavenumbers(const KernelData& data, const WorkItem& item,
                               Scratch& s) {
  const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
  s.u.resize(nt);
  s.v.resize(nt);
  s.w.resize(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    const UVW& coord =
        data.uvw(static_cast<std::size_t>(item.baseline),
                 static_cast<std::size_t>(item.time_begin) + t);
    s.u[t] = coord.u;
    s.v[t] = coord.v;
    s.w[t] = coord.w;
  }
  const auto first = data.wavenumbers.begin() + item.channel_begin;
  s.k.assign(first, first + item.nr_channels);
}

void store_gridder_pixel(const Parameters& /*params*/, const KernelData& data,
                         const WorkItem& item, std::size_t slot_index,
                         std::size_t y, std::size_t x, const float acc[8],
                         ArrayView<cfloat, 4> subgrids) {
  const Jones& a1 = data.aterms(static_cast<std::size_t>(item.aterm_slot),
                                static_cast<std::size_t>(item.station1), y, x);
  const Jones& a2 = data.aterms(static_cast<std::size_t>(item.aterm_slot),
                                static_cast<std::size_t>(item.station2), y, x);
  Matrix2x2<float> pixel{{acc[0], acc[1]},
                         {acc[2], acc[3]},
                         {acc[4], acc[5]},
                         {acc[6], acc[7]}};
  pixel = a1.adjoint() * pixel * a2;
  pixel *= cfloat(data.taper(y, x), 0.0f);
  for (int p = 0; p < 4; ++p)
    subgrids(slot_index, static_cast<std::size_t>(p), y, x) = pixel[p];
}

void load_degridder_pixels(const Parameters& params, const KernelData& data,
                           const WorkItem& item, std::size_t slot_index,
                           ArrayView<const cfloat, 4> subgrids,
                           std::size_t n2p, Scratch& s) {
  const std::size_t n = params.subgrid_size;
  const std::size_t n2 = n * n;
  // Pixels [0, n2) are overwritten below; zero only the SIMD padding tail.
  for (int p = 0; p < 4; ++p) {
    s.re[p].resize(n2p);
    s.im[p].resize(n2p);
    for (std::size_t idx = n2; idx < n2p; ++idx) {
      s.re[p][idx] = 0.0f;
      s.im[p][idx] = 0.0f;
    }
  }
  for (std::size_t idx = 0; idx < n2; ++idx) {
    const std::size_t y = idx / n, x = idx % n;
    Matrix2x2<float> pixel{subgrids(slot_index, 0, y, x),
                           subgrids(slot_index, 1, y, x),
                           subgrids(slot_index, 2, y, x),
                           subgrids(slot_index, 3, y, x)};
    const Jones& a1 =
        data.aterms(static_cast<std::size_t>(item.aterm_slot),
                    static_cast<std::size_t>(item.station1), y, x);
    const Jones& a2 =
        data.aterms(static_cast<std::size_t>(item.aterm_slot),
                    static_cast<std::size_t>(item.station2), y, x);
    pixel = a1 * pixel * a2.adjoint();
    pixel *= cfloat(data.taper(y, x), 0.0f);
    for (int p = 0; p < 4; ++p) {
      s.re[p][idx] = pixel[p].real();
      s.im[p][idx] = pixel[p].imag();
    }
  }
}

}  // namespace idg::kernels::internal
