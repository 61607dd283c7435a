#include "kernels/optimized.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "idg/backend.hpp"
#include "kernels/autotune.hpp"
#include "kernels/coarsen.hpp"
#include "kernels/internal.hpp"
#include "kernels/jit.hpp"
#include "kernels/vmath.hpp"

namespace idg::kernels {

namespace {

using internal::padded;
using internal::Scratch;

/// Pixels per gridder tile: the SIMD lanes of its accumulation loop.
constexpr std::size_t kLanes = 16;

/// Phase arguments per batched sincos call in the gridder; a tile's
/// timesteps are processed in blocks that fit it.
constexpr std::size_t kPhaseBatch = 4096;

/// The wavenumber step of the channel recurrence, or nothing when the item
/// must evaluate one sincos per channel. The recurrence needs uniform
/// channels: every k[c] within a few float ulps of k0 + c * dk, with dk
/// taken from the item's channel span. It pays from three channels on; one
/// or two cost no more than their own sincos.
std::optional<float> channel_step(const float* k, std::size_t nc) {
  if (nc < 3) return std::nullopt;
  constexpr double kUlps = 4.0;
  const double dk = (static_cast<double>(k[nc - 1]) - k[0]) /
                    static_cast<double>(nc - 1);
  for (std::size_t c = 1; c + 1 < nc; ++c) {
    const double expected = k[0] + static_cast<double>(c) * dk;
    if (std::abs(k[c] - expected) >
        kUlps * std::numeric_limits<float>::epsilon() * std::abs(k[c]))
      return std::nullopt;
  }
  return static_cast<float>(dk);
}

/// Stages a work item for the gridder: its visibilities as unpadded
/// [t][c][8] floats (4 polarizations x re/im), its uvw coordinates and its
/// channel wavenumbers.
void stage_item(const KernelData& data, const WorkItem& item,
                ArrayView<const Visibility, 3> visibilities, Scratch& s) {
  const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
  const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
  const std::size_t bl = static_cast<std::size_t>(item.baseline);
  const std::size_t t0 = static_cast<std::size_t>(item.time_begin);
  const std::size_t c0 = static_cast<std::size_t>(item.channel_begin);
  internal::stage_uvw_and_wavenumbers(data, item, s);
  s.vis.resize(nt * nc * 8);
  float* out = s.vis.data();
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t c = 0; c < nc; ++c) {
      const Visibility& vis = visibilities(bl, t0 + t, c0 + c);
      for (int p = 0; p < 4; ++p) {
        *out++ = vis[p].real();
        *out++ = vis[p].imag();
      }
    }
  }
}

/// acc += V * phasor over one tile: V is one visibility's 8 floats, the
/// phasor (pc + i ps) holds one value per pixel lane. One product per
/// statement, so each compiles to a single FMA.
inline void accumulate(float (&acc)[8][kLanes], const float* vis,
                       const float* pc, const float* ps) {
#pragma omp simd
  for (std::size_t j = 0; j < kLanes; ++j) {
    for (int p = 0; p < 4; ++p) {
      acc[2 * p][j] += vis[2 * p] * pc[j];
      acc[2 * p][j] -= vis[2 * p + 1] * ps[j];
      acc[2 * p + 1][j] += vis[2 * p] * ps[j];
      acc[2 * p + 1][j] += vis[2 * p + 1] * pc[j];
    }
  }
}

/// phasor *= rotator, lane by lane: advances the phasors one channel.
inline void rotate(float (&pc)[kLanes], float (&ps)[kLanes],
                   const float (&rc)[kLanes], const float (&rs)[kLanes]) {
#pragma omp simd
  for (std::size_t j = 0; j < kLanes; ++j) {
    const float c = pc[j] * rc[j] - ps[j] * rs[j];
    ps[j] = pc[j] * rs[j] + ps[j] * rc[j];
    pc[j] = c;
  }
}

class OptimizedKernels final : public KernelSet {
 public:
  OptimizedKernels(std::string name, SincosFn sincos)
      : name_(std::move(name)), sincos_(sincos) {}

  std::string name() const override { return name_; }

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
  // --- gridder: a tile of pixels in the SIMD lanes ----------------------------
  //
  // Each tile of kLanes pixels sweeps the staged (time x channel) batch once,
  // broadcasting every visibility into all lanes and keeping the eight
  // polarization accumulators in registers.
  void grid_item(const Parameters& params, const KernelData& data,
                 const WorkItem& item,
                 ArrayView<const Visibility, 3> visibilities,
                 ArrayView<cfloat, 4> subgrids, std::size_t slot_index) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2 = n * n;
    const std::size_t nt = static_cast<std::size_t>(item.nr_timesteps);
    const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    stage_item(data, item, visibilities, s);

    // Phase rows per timestep: the channel-0 phasor and the rotator, or one
    // row per channel.
    const std::optional<float> dk = channel_step(s.k.data(), nc);
    const std::size_t rows = dk ? 2 : nc;
    const std::size_t block =
        std::clamp<std::size_t>(kPhaseBatch / (rows * kLanes), 1, nt);
    s.phase.resize(block * rows * kLanes);
    s.sin_v.resize(block * rows * kLanes);
    s.cos_v.resize(block * rows * kLanes);
    float* const phase = s.phase.data();
    float* const sin_v = s.sin_v.data();
    float* const cos_v = s.cos_v.data();
    const float* const k = s.k.data();

    for (std::size_t p0 = 0; p0 < n2; p0 += kLanes) {
      const std::size_t lanes = std::min(kLanes, n2 - p0);
      alignas(64) float l[kLanes] = {}, m[kLanes] = {}, pn[kLanes] = {},
                        off[kLanes] = {};
      for (std::size_t j = 0; j < lanes; ++j) {
        l[j] = geom.l[p0 + j];
        m[j] = geom.m[p0 + j];
        pn[j] = geom.n[p0 + j];
        off[j] = s.offset[p0 + j];
      }
      alignas(64) float acc[8][kLanes] = {};

      for (std::size_t t0 = 0; t0 < nt; t0 += block) {
        const std::size_t t1 = std::min(nt, t0 + block);
        for (std::size_t t = t0; t < t1; ++t) {
          float* const row = phase + (t - t0) * rows * kLanes;
          const float u = s.u[t], v = s.v[t], w = s.w[t];
          if (dk) {
#pragma omp simd
            for (std::size_t j = 0; j < kLanes; ++j) {
              const float base = u * l[j] + v * m[j] + w * pn[j];
              row[j] = base * k[0] - off[j];
              row[kLanes + j] = base * *dk;
            }
          } else {
            for (std::size_t c = 0; c < nc; ++c) {
#pragma omp simd
              for (std::size_t j = 0; j < kLanes; ++j)
                row[c * kLanes + j] =
                    (u * l[j] + v * m[j] + w * pn[j]) * k[c] - off[j];
            }
          }
        }
        sincos_((t1 - t0) * rows * kLanes, phase, sin_v, cos_v);

        for (std::size_t t = t0; t < t1; ++t) {
          const float* const pc = cos_v + (t - t0) * rows * kLanes;
          const float* const ps = sin_v + (t - t0) * rows * kLanes;
          const float* const vis = s.vis.data() + t * nc * 8;
          if (dk) {
            // Channel c's phasor is channel c-1's times the rotator
            // e^{i base dk}: one complex multiply instead of a sincos.
            alignas(64) float qc[kLanes], qs[kLanes], rc[kLanes], rs[kLanes];
            std::copy_n(pc, kLanes, qc);
            std::copy_n(ps, kLanes, qs);
            std::copy_n(pc + kLanes, kLanes, rc);
            std::copy_n(ps + kLanes, kLanes, rs);
            for (std::size_t c = 0;; ++c) {
              accumulate(acc, vis + c * 8, qc, qs);
              if (c + 1 == nc) break;
              rotate(qc, qs, rc, rs);
            }
          } else {
            for (std::size_t c = 0; c < nc; ++c)
              accumulate(acc, vis + c * 8, pc + c * kLanes, ps + c * kLanes);
          }
        }
      }

      for (std::size_t j = 0; j < lanes; ++j) {
        const float pixel[8] = {acc[0][j], acc[1][j], acc[2][j], acc[3][j],
                                acc[4][j], acc[5][j], acc[6][j], acc[7][j]};
        internal::store_gridder_pixel(params, data, item, slot_index,
                                      (p0 + j) / n, (p0 + j) % n, pixel,
                                      subgrids);
      }
    }
  }

  // --- degridder: SIMD reduction over pixels (paper §V-B-b) -----------------
  void degrid_item(const Parameters& params, const KernelData& data,
                   const WorkItem& item, ArrayView<const cfloat, 4> subgrids,
                   std::size_t slot_index,
                   ArrayView<Visibility, 3> visibilities) const {
    const std::size_t n = params.subgrid_size;
    const std::size_t n2p = padded(n * n);
    const std::size_t nc = static_cast<std::size_t>(item.nr_channels);
    Scratch& s = internal::scratch();
    const internal::GeometryTable& geom = internal::geometry_table(params);
    internal::fill_geometry(params, item, geom, s);
    internal::load_degridder_pixels(params, data, item, slot_index, subgrids,
                                    n2p, s);
    const float* const k =
        data.wavenumbers.data() + static_cast<std::size_t>(item.channel_begin);
    const std::optional<float> dk = channel_step(k, nc);

    // Phase rows over the pixels: the channel-0 phasor and the rotator, or
    // one channel's phasor at a time.
    const std::size_t rows = dk ? 2 : 1;
    s.phase.resize(rows * n2p);
    s.sin_v.resize(rows * n2p);
    s.cos_v.resize(rows * n2p);
    float* const phase = s.phase.data();
    float* const pc = s.cos_v.data();
    float* const ps = s.sin_v.data();
    const float* const lp = geom.l.data();
    const float* const mp = geom.m.data();
    const float* const np = geom.n.data();
    const float* const op = s.offset.data();

    for (int t = 0; t < item.nr_timesteps; ++t) {
      const UVW& coord =
          data.uvw(static_cast<std::size_t>(item.baseline),
                   static_cast<std::size_t>(item.time_begin + t));
      const float u = coord.u, v = coord.v, w = coord.w;
      if (dk) {
#pragma omp simd
        for (std::size_t j = 0; j < n2p; ++j) {
          const float base = u * lp[j] + v * mp[j] + w * np[j];
          phase[j] = op[j] - base * k[0];
          phase[n2p + j] = -base * *dk;
        }
        sincos_(2 * n2p, phase, ps, pc);
      }
      for (std::size_t c = 0; c < nc; ++c) {
        if (!dk) {
#pragma omp simd
          for (std::size_t j = 0; j < n2p; ++j)
            phase[j] = op[j] - (u * lp[j] + v * mp[j] + w * np[j]) * k[c];
          sincos_(n2p, phase, ps, pc);
        }
        Visibility& out = visibilities(
            static_cast<std::size_t>(item.baseline),
            static_cast<std::size_t>(item.time_begin + t),
            static_cast<std::size_t>(item.channel_begin) + c);
        // The last channel (and every channel without the recurrence)
        // leaves the phasors as they are.
        out = dk && c + 1 < nc ? reduce_pixels<true>(s, n2p, pc, ps)
                               : reduce_pixels<false>(s, n2p, pc, ps);
      }
    }
  }

  /// One visibility: the sum over pixels of pixel * phasor. With kAdvance,
  /// the same pass multiplies each phasor by its rotator (stored n2p floats
  /// after it) for the next channel.
  template <bool kAdvance>
  static Visibility reduce_pixels(const Scratch& s, std::size_t n2p,
                                  float* pc, float* ps) {
    float vr0 = 0, vi0 = 0, vr1 = 0, vi1 = 0;
    float vr2 = 0, vi2 = 0, vr3 = 0, vi3 = 0;
    const float* sr0 = s.re[0].data();
    const float* si0 = s.im[0].data();
    const float* sr1 = s.re[1].data();
    const float* si1 = s.im[1].data();
    const float* sr2 = s.re[2].data();
    const float* si2 = s.im[2].data();
    const float* sr3 = s.re[3].data();
    const float* si3 = s.im[3].data();
    const float* rc = pc + n2p;
    const float* rs = ps + n2p;
#pragma omp simd reduction(+ : vr0, vi0, vr1, vi1, vr2, vi2, vr3, vi3)
    for (std::size_t j = 0; j < n2p; ++j) {
      const float c = pc[j], sn = ps[j];
      vr0 += sr0[j] * c - si0[j] * sn;
      vi0 += sr0[j] * sn + si0[j] * c;
      vr1 += sr1[j] * c - si1[j] * sn;
      vi1 += sr1[j] * sn + si1[j] * c;
      vr2 += sr2[j] * c - si2[j] * sn;
      vi2 += sr2[j] * sn + si2[j] * c;
      vr3 += sr3[j] * c - si3[j] * sn;
      vi3 += sr3[j] * sn + si3[j] * c;
      if constexpr (kAdvance) {
        pc[j] = c * rc[j] - sn * rs[j];
        ps[j] = c * rs[j] + sn * rc[j];
      }
    }
    return {{vr0, vi0}, {vr1, vi1}, {vr2, vi2}, {vr3, vi3}};
  }

  std::string name_;
  SincosFn sincos_;
};

}  // namespace

const KernelSet& optimized_kernels() {
  static const OptimizedKernels k("optimized", &vmath::sincos_batch);
  return k;
}

const KernelSet& optimized_lut_kernels() {
  static const OptimizedKernels k("optimized-lut", &vmath::sincos_lut);
  return k;
}

const KernelSet& optimized_libm_kernels() {
  static const OptimizedKernels k("optimized-libm", &vmath::sincos_libm);
  return k;
}

const KernelSet& kernel_set(const std::string& name) {
  if (name == "reference") return reference_kernels();
  if (name == "optimized") return optimized_kernels();
  if (name == "optimized-lut") return optimized_lut_kernels();
  if (name == "optimized-libm") return optimized_libm_kernels();
  if (name == "jit") return jit_kernels();
  if (name == "tuned") return tuned_kernels();
  for (const KernelSet* set : coarsened_kernel_sets())
    if (set->name() == name) return *set;
  for (const KernelSet* set : jit_coarsened_kernel_sets())
    if (set->name() == name) return *set;
  std::string known;
  for (const std::string& n : kernel_set_names())
    known += (known.empty() ? "" : " | ") + n;
  throw Error("unknown kernel set: '" + name + "' (expected " + known + ")");
}

std::vector<std::string> kernel_set_names() {
  std::vector<std::string> names = {"reference",      "optimized",
                                    "optimized-lut",  "optimized-libm",
                                    "jit",            "tuned"};
  for (const std::string& n : coarsened_variant_names()) names.push_back(n);
  for (const std::string& n : jit_coarsened_variant_names())
    names.push_back(n);
  return names;
}

namespace {
/// Installs the registry into the core library's resolver hook so
/// BackendOptions::kernel_set = "<name>" works in every binary that links
/// idg_kernels. Lives in this TU because every registry user pulls it in.
[[maybe_unused]] const bool kResolverInstalled = [] {
  set_kernel_set_resolver(&kernel_set);
  return true;
}();
}  // namespace

}  // namespace idg::kernels
