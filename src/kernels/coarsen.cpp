#include "kernels/coarsen.hpp"

#include <algorithm>
#include <cstddef>

#include "common/error.hpp"
#include "kernels/internal.hpp"
#include "kernels/vmath.hpp"

namespace idg::kernels {

namespace {

using internal::padded;
using internal::Scratch;

template <int V, int P, int C>
class CoarsenedKernels final : public KernelSet {
 public:
  static_assert(V >= 1 && P >= 1 && C >= 1);

  std::string name() const override {
    return "coarsen" + std::to_string(V) + "x" + std::to_string(P) + "c" +
           std::to_string(C);
  }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      grid_item(params, data, items[i], visibilities, subgrids, i);
    }
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(2) == n,
              "subgrid buffer shape mismatch");

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      degrid_item(params, data, items[i], subgrids, i, visibilities);
    }
  }

 private:
  /// Phase fill for one (pixel, timestep-block) row: the channel loop is
  /// blocked by the compile-time width C so the main body fully unrolls.
  static void fill_phase_row(float* ph, float b, float off, const float* kw,
                             std::size_t ncp) {
    std::size_t c = 0;
    for (; c + C <= ncp; c += C) {
#pragma omp simd
      for (int cc = 0; cc < C; ++cc) ph[c + cc] = b * kw[c + cc] - off;
    }
    const std::size_t tail = c;
#pragma omp simd
    for (std::size_t cc = tail; cc < ncp; ++cc) ph[cc] = b * kw[cc] - off;
  }

  // --- gridder: P-pixel tile x V-timestep block per sincos batch -----------
  void grid_item(const Parameters& params, const KernelData& data,
                 const WorkItem& item,
                 ArrayView<const Visibility, 3> visibilities,
                 ArrayView<cfloat, 4> subgrids, std::size_t slot_index) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2 = n * n;
    const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
    const std::size_t ncp = padded(static_cast<std::size_t>(item.nr_channels));
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    internal::gather_visibility_batch(params, data, item, visibilities, ncp,
                                      s);

    const std::size_t tile_cap =
        static_cast<std::size_t>(P) * static_cast<std::size_t>(V) * ncp;
    s.phase.resize(tile_cap);
    s.sin_v.resize(tile_cap);
    s.cos_v.resize(tile_cap);
    float* const phase = s.phase.data();
    float* const sin_v = s.sin_v.data();
    float* const cos_v = s.cos_v.data();
    const float* const kw = s.k.data();

    for (std::size_t p0 = 0; p0 < n2; p0 += P) {
      const std::size_t pt = std::min<std::size_t>(P, n2 - p0);
      float acc[P][8] = {};

      for (std::size_t t0 = 0; t0 < nt; t0 += V) {
        const std::size_t vt = std::min<std::size_t>(V, nt - t0);
        const std::size_t block = vt * ncp;

        // Phases for the whole (P pixels x V timesteps x channels) tile,
        // then ONE batched sincos over it — the coarsening amortizes the
        // per-pixel phasor setup of the un-coarsened kernel.
        for (std::size_t p = 0; p < pt; ++p) {
          const std::size_t idx = p0 + p;
          const float l = geom.l[idx], m = geom.m[idx], pn = geom.n[idx];
          const float offset = s.offset[idx];
          float* const ph = phase + p * block;
          for (std::size_t t = 0; t < vt; ++t) {
            const float b = s.u[t0 + t] * l + s.v[t0 + t] * m +
                            s.w[t0 + t] * pn;
            fill_phase_row(ph + t * ncp, b, offset, kw, ncp);
          }
        }
        vmath::sincos_batch(pt * block, phase, sin_v, cos_v);

        // Per-pixel SIMD reduction over the timestep block; the staged
        // visibility rows are reused by all P pixels of the tile.
        const float* vr0 = s.re[0].data() + t0 * ncp;
        const float* vi0 = s.im[0].data() + t0 * ncp;
        const float* vr1 = s.re[1].data() + t0 * ncp;
        const float* vi1 = s.im[1].data() + t0 * ncp;
        const float* vr2 = s.re[2].data() + t0 * ncp;
        const float* vi2 = s.im[2].data() + t0 * ncp;
        const float* vr3 = s.re[3].data() + t0 * ncp;
        const float* vi3 = s.im[3].data() + t0 * ncp;
        for (std::size_t p = 0; p < pt; ++p) {
          const float* sv = sin_v + p * block;
          const float* cv = cos_v + p * block;
          float pr0 = 0, pi0 = 0, pr1 = 0, pi1 = 0;
          float pr2 = 0, pi2 = 0, pr3 = 0, pi3 = 0;
#pragma omp simd reduction(+ : pr0, pi0, pr1, pi1, pr2, pi2, pr3, pi3)
          for (std::size_t c = 0; c < block; ++c) {
            pr0 += vr0[c] * cv[c] - vi0[c] * sv[c];
            pi0 += vr0[c] * sv[c] + vi0[c] * cv[c];
            pr1 += vr1[c] * cv[c] - vi1[c] * sv[c];
            pi1 += vr1[c] * sv[c] + vi1[c] * cv[c];
            pr2 += vr2[c] * cv[c] - vi2[c] * sv[c];
            pi2 += vr2[c] * sv[c] + vi2[c] * cv[c];
            pr3 += vr3[c] * cv[c] - vi3[c] * sv[c];
            pi3 += vr3[c] * sv[c] + vi3[c] * cv[c];
          }
          acc[p][0] += pr0;
          acc[p][1] += pi0;
          acc[p][2] += pr1;
          acc[p][3] += pi1;
          acc[p][4] += pr2;
          acc[p][5] += pi2;
          acc[p][6] += pr3;
          acc[p][7] += pi3;
        }
      }

      for (std::size_t p = 0; p < pt; ++p) {
        const std::size_t idx = p0 + p;
        internal::store_gridder_pixel(params, data, item, slot_index, idx / n,
                                      idx % n, acc[p], subgrids);
      }
    }
  }

  // --- degridder: (V timesteps x C channels) block per sincos batch --------
  void degrid_item(const Parameters& params, const KernelData& data,
                   const WorkItem& item, ArrayView<const cfloat, 4> subgrids,
                   std::size_t slot_index,
                   ArrayView<Visibility, 3> visibilities) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2p = padded(n * n);
    const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
    const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    internal::load_degridder_pixels(params, data, item, slot_index, subgrids,
                                    n2p, s);
    internal::stage_uvw_and_wavenumbers(data, item, s);

    const std::size_t block_cap =
        static_cast<std::size_t>(V) * static_cast<std::size_t>(C) * n2p;
    s.phase.resize(block_cap);
    s.sin_v.resize(block_cap);
    s.cos_v.resize(block_cap);
    float* const phase = s.phase.data();
    float* const sin_v = s.sin_v.data();
    float* const cos_v = s.cos_v.data();
    const float* const lp = geom.l.data();
    const float* const mp = geom.m.data();
    const float* const np = geom.n.data();
    const float* const op = s.offset.data();
    const float* sr0 = s.re[0].data();
    const float* si0 = s.im[0].data();
    const float* sr1 = s.re[1].data();
    const float* si1 = s.im[1].data();
    const float* sr2 = s.re[2].data();
    const float* si2 = s.im[2].data();
    const float* sr3 = s.re[3].data();
    const float* si3 = s.im[3].data();

    for (std::size_t t0 = 0; t0 < nt; t0 += V) {
      const std::size_t vt = std::min<std::size_t>(V, nt - t0);
      for (std::size_t c0 = 0; c0 < nc; c0 += C) {
        const std::size_t ct = std::min<std::size_t>(C, nc - c0);
        const std::size_t cells = vt * ct;

        // Phases for the whole (V x C) visibility block over every pixel,
        // then one sincos of cells * n2p — the pixel arrays stay hot in
        // cache across all cells of the block.
        for (std::size_t t = 0; t < vt; ++t) {
          const float ut = s.u[t0 + t], vv = s.v[t0 + t], wt = s.w[t0 + t];
          for (std::size_t c = 0; c < ct; ++c) {
            const float kc = s.k[c0 + c];
            float* const ph = phase + (t * ct + c) * n2p;
#pragma omp simd
            for (std::size_t j = 0; j < n2p; ++j) {
              ph[j] = op[j] - (ut * lp[j] + vv * mp[j] + wt * np[j]) * kc;
            }
          }
        }
        vmath::sincos_batch(cells * n2p, phase, sin_v, cos_v);

        for (std::size_t t = 0; t < vt; ++t) {
          for (std::size_t c = 0; c < ct; ++c) {
            const float* sv = sin_v + (t * ct + c) * n2p;
            const float* cv = cos_v + (t * ct + c) * n2p;
            float vr0 = 0, vi0 = 0, vr1 = 0, vi1 = 0;
            float vr2 = 0, vi2 = 0, vr3 = 0, vi3 = 0;
#pragma omp simd reduction(+ : vr0, vi0, vr1, vi1, vr2, vi2, vr3, vi3)
            for (std::size_t j = 0; j < n2p; ++j) {
              vr0 += sr0[j] * cv[j] - si0[j] * sv[j];
              vi0 += sr0[j] * sv[j] + si0[j] * cv[j];
              vr1 += sr1[j] * cv[j] - si1[j] * sv[j];
              vi1 += sr1[j] * sv[j] + si1[j] * cv[j];
              vr2 += sr2[j] * cv[j] - si2[j] * sv[j];
              vi2 += sr2[j] * sv[j] + si2[j] * cv[j];
              vr3 += sr3[j] * cv[j] - si3[j] * sv[j];
              vi3 += sr3[j] * sv[j] + si3[j] * cv[j];
            }
            visibilities(
                static_cast<std::size_t>(item.baseline),
                static_cast<std::size_t>(item.time_begin) + t0 + t,
                static_cast<std::size_t>(item.channel_begin) + c0 + c) = {
                {vr0, vi0}, {vr1, vi1}, {vr2, vi2}, {vr3, vi3}};
          }
        }
      }
    }
  }
};

/// The instantiated variant set. Factors follow Merry's sweep: visibility
/// coarsening 2-8, pixel tiles 2-4, channel batches up to the SIMD width.
struct VariantEntry {
  int v, p, c;
  const KernelSet* set;
};

template <int V, int P, int C>
const KernelSet& instance() {
  static const CoarsenedKernels<V, P, C> k;
  return k;
}

const std::vector<VariantEntry>& variant_table() {
  static const std::vector<VariantEntry> table = {
      {2, 2, 2, &instance<2, 2, 2>()}, {2, 2, 8, &instance<2, 2, 8>()},
      {4, 2, 4, &instance<4, 2, 4>()}, {4, 4, 8, &instance<4, 4, 8>()},
      {8, 2, 4, &instance<8, 2, 4>()}, {8, 4, 8, &instance<8, 4, 8>()},
  };
  return table;
}

}  // namespace

const KernelSet& coarsened_kernel_set(int v, int p, int c) {
  for (const VariantEntry& e : variant_table()) {
    if (e.v == v && e.p == p && e.c == c) return *e.set;
  }
  throw Error("no instantiated coarsened variant coarsen" +
              std::to_string(v) + "x" + std::to_string(p) + "c" +
              std::to_string(c) +
              " (see kernels::coarsened_variant_names())");
}

const std::vector<const KernelSet*>& coarsened_kernel_sets() {
  static const std::vector<const KernelSet*> sets = [] {
    std::vector<const KernelSet*> out;
    for (const VariantEntry& e : variant_table()) out.push_back(e.set);
    return out;
  }();
  return sets;
}

std::vector<std::string> coarsened_variant_names() {
  std::vector<std::string> names;
  for (const KernelSet* set : coarsened_kernel_sets())
    names.push_back(set->name());
  return names;
}

}  // namespace idg::kernels
