// The optimized gridder and degridder loops (paper §V-B), one work item at a
// time, over flat arrays.
//
// This header is compiled twice from the same bytes:
//  - statically into idg_kernels, where "optimized", "optimized-lut" and
//    "optimized-libm" run it with their sincos implementation
//    (kernels/optimized.cpp);
//  - at run time by the "jit" kernel set, once per (subgrid, channels)
//    shape, with -march=native (kernels/jit.cpp). CMake embeds this file's
//    text into the library; the JIT prepends the shape as the IDG_JIT_N2
//    and IDG_JIT_NC macros, which compile the entry points at the bottom.
//
// It must therefore stay self-contained: standard headers only, C++17, no
// other repository header. An include guard rather than #pragma once,
// because the JIT compiles it as a main file.
//
// The loops:
//  - gridder: a tile of kLanes pixels sits in the SIMD lanes; each staged
//    visibility is broadcast into all lanes, and the eight polarization
//    accumulators stay in registers;
//  - degridder: a SIMD reduction over pixels per visibility.
// Both make the "algorithmic change" of §VI-C1: for uniformly spaced
// channels the phase is linear in the channel index, phi(t, c) =
// phi(t, 0) + c * base(pixel, t) * dk, so each (pixel, timestep) evaluates
// sincos only for the channel-0 phasor and the rotator e^{i base dk}, and
// advances every further channel by one complex multiply. Items whose
// wavenumbers are not uniform (or that have fewer than three channels)
// evaluate one sincos per channel in the same loops.
#ifndef IDG_KERNELS_LOOPS_HPP
#define IDG_KERNELS_LOOPS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

namespace idg::kernels::loops {

/// Batched sincos: out_sin[i] = sin(x[i]), out_cos[i] = cos(x[i]), i < n.
using SincosFn = void (*)(std::size_t, const float*, float*, float*);

/// Pads a count up to the AVX2 float width so SIMD loops never need a
/// masked remainder.
inline constexpr std::size_t kSimdWidth = 8;
inline constexpr std::size_t padded(std::size_t n) {
  return (n + kSimdWidth - 1) / kSimdWidth * kSimdWidth;
}

/// Pixels per gridder tile: the SIMD lanes of its accumulation loop.
inline constexpr std::size_t kLanes = 16;

/// Phase arguments per batched sincos call in the gridder; a tile's
/// timesteps are processed in blocks that fit it.
inline constexpr std::size_t kPhaseBatch = 4096;

// The phases decide the rounding that matters: they reach hundreds of
// radians, so one rounding more or less moves a phasor by ~1e-5, while a
// sum's roundings stay near 1e-7. A runtime-compiled object for a library
// built without fused multiply-adds therefore computes its phases without
// them (kernels/jit.cpp defines IDG_JIT_UNFUSED_PHASES): they round like
// the library's own loops, and the sums keep their FMAs.
#ifdef IDG_JIT_UNFUSED_PHASES
#define IDG_LOOPS_PHASES __attribute__((optimize("fp-contract=off")))
#else
#define IDG_LOOPS_PHASES
#endif

/// Floats each of the phase, sine and cosine workspaces must hold for an
/// item of n2 pixels and nc channels, in either direction.
inline std::size_t workspace_floats(std::size_t n2, std::size_t nc) {
  return std::max({kPhaseBatch, nc * kLanes, 2 * padded(n2)});
}

/// One work item's gridder inputs and output. Pixel arrays hold padded(n2)
/// floats (zero padded), timestep arrays nt and channel arrays nc.
struct GridArgs {
  std::size_t nt;
  const float* l;       ///< direction cosines and n term per pixel
  const float* m;
  const float* n;
  const float* offset;  ///< the item's phase offset per pixel
  const float* u;       ///< uvw per timestep
  const float* v;
  const float* w;
  const float* k;       ///< wavenumber per channel
  const float* vis;     ///< [t][c][pol re/im]: nt * nc * 8 floats
  float* phase;         ///< workspaces of workspace_floats(n2, nc)
  float* sin;
  float* cos;
  float* out;           ///< [pixel][pol re/im]: n2 * 8 accumulated floats
};

/// One work item's degridder inputs and output.
struct DegridArgs {
  std::size_t nt;
  const float* l;
  const float* m;
  const float* n;
  const float* offset;
  const float* u;
  const float* v;
  const float* w;
  const float* k;
  const float* re[4];  ///< split re/im pixels after taper and A-terms
  const float* im[4];
  float* phase;
  float* sin;
  float* cos;
  float* out;          ///< [t][c][pol re/im]: nt * nc * 8 floats
};

/// Cody-Waite split of pi/2 for the two-step reduction r = (x - q*hi) - q*lo.
/// The high part has 8 significant bits, so q*hi is exact for |q| < 2^16
/// whether or not the compiler fuses the multiply-subtract into an FMA.
inline constexpr float kTwoOverPi = 0.636619772367581343f;
inline constexpr float kPio2Hi = 1.5703125f;
inline constexpr float kPio2Lo = 4.83826794896619231e-4f;

/// Cephes minimax polynomials on [-pi/4, pi/4].
inline constexpr float kS1 = -1.6666654611e-1f;
inline constexpr float kS2 = 8.3321608736e-3f;
inline constexpr float kS3 = -1.9515295891e-4f;
inline constexpr float kC1 = 4.166664568298827e-2f;
inline constexpr float kC2 = -1.388731625493765e-3f;
inline constexpr float kC3 = 2.443315711809948e-5f;

/// The polynomial sincos (vmath::sincos_batch): range reduction to
/// [-pi/4, pi/4], then minimax polynomials; ~2 ulp for |x| < 2^13.
inline void sincos_poly(std::size_t n, const float* x, float* out_sin,
                        float* out_cos) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    // Reduce to r in [-pi/4, pi/4] with quadrant q.
    const float qf = std::nearbyint(xi * kTwoOverPi);
    const std::int32_t q = static_cast<std::int32_t>(qf);
    const float r = (xi - qf * kPio2Hi) - qf * kPio2Lo;
    const float r2 = r * r;

    // Polynomial kernels.
    const float s = r + r * r2 * (kS1 + r2 * (kS2 + r2 * kS3));
    const float c =
        1.0f - 0.5f * r2 + r2 * r2 * (kC1 + r2 * (kC2 + r2 * kC3));

    // Quadrant selection: k = q mod 4 maps (sin, cos) onto
    // {(s,c), (c,-s), (-s,-c), (-c,s)}; ternaries compile to SIMD blends.
    const std::int32_t k = q & 3;
    const bool swap = (k & 1) != 0;
    const float base_sin = swap ? c : s;
    const float base_cos = swap ? s : c;
    out_sin[i] = (k == 2 || k == 3) ? -base_sin : base_sin;
    out_cos[i] = (k == 1 || k == 2) ? -base_cos : base_cos;
  }
}

/// The wavenumber step of the channel recurrence, or nothing when the item
/// must evaluate one sincos per channel. The recurrence needs uniform
/// channels: every k[c] within a few float ulps of k0 + c * dk, with dk
/// taken from the item's channel span. It pays from three channels on; one
/// or two cost no more than their own sincos.
inline std::optional<float> channel_step(const float* k, std::size_t nc) {
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

/// The phase rows of timesteps [t0, t1) for one tile of pixels (l, m, pn,
/// off): per timestep the channel-0 phase and the rotator's, or one phase
/// per channel.
IDG_LOOPS_PHASES inline void tile_phases(
    const GridArgs& a, std::size_t nc, std::optional<float> dk,
    std::size_t t0, std::size_t t1, const float* l, const float* m,
    const float* pn, const float* off, float* phase) {
  const float* const k = a.k;
  const std::size_t rows = dk ? 2 : nc;
  for (std::size_t t = t0; t < t1; ++t) {
    float* const row = phase + (t - t0) * rows * kLanes;
    const float u = a.u[t], v = a.v[t], w = a.w[t];
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
}

/// The gridder for one item of n2 pixels and nc channels: each tile of
/// kLanes pixels sweeps the staged (time x channel) batch once. Writes the
/// accumulated pixels, before A-terms and taper, to a.out.
inline void grid(std::size_t n2, std::size_t nc, const GridArgs& a,
                 SincosFn sincos) {
  const std::size_t nt = a.nt;
  // Phase rows per timestep: the channel-0 phasor and the rotator, or one
  // row per channel.
  const std::optional<float> dk = channel_step(a.k, nc);
  const std::size_t rows = dk ? 2 : nc;
  const std::size_t block =
      std::clamp<std::size_t>(kPhaseBatch / (rows * kLanes), 1, nt);
  float* const phase = a.phase;
  float* const sin_v = a.sin;
  float* const cos_v = a.cos;

  for (std::size_t p0 = 0; p0 < n2; p0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, n2 - p0);
    alignas(64) float l[kLanes] = {}, m[kLanes] = {}, pn[kLanes] = {},
                      off[kLanes] = {};
    for (std::size_t j = 0; j < lanes; ++j) {
      l[j] = a.l[p0 + j];
      m[j] = a.m[p0 + j];
      pn[j] = a.n[p0 + j];
      off[j] = a.offset[p0 + j];
    }
    alignas(64) float acc[8][kLanes] = {};

    for (std::size_t t0 = 0; t0 < nt; t0 += block) {
      const std::size_t t1 = std::min(nt, t0 + block);
      tile_phases(a, nc, dk, t0, t1, l, m, pn, off, phase);
      sincos((t1 - t0) * rows * kLanes, phase, sin_v, cos_v);

      for (std::size_t t = t0; t < t1; ++t) {
        const float* const pc = cos_v + (t - t0) * rows * kLanes;
        const float* const ps = sin_v + (t - t0) * rows * kLanes;
        const float* const vis = a.vis + t * nc * 8;
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

    for (std::size_t j = 0; j < lanes; ++j)
      for (int q = 0; q < 8; ++q) a.out[(p0 + j) * 8 + q] = acc[q][j];
  }
}

/// One visibility into out[8]: the sum over n2p pixels of pixel * phasor.
/// With kAdvance, the same pass multiplies each phasor by its rotator
/// (stored n2p floats after it) for the next channel.
template <bool kAdvance>
inline void reduce_pixels(const DegridArgs& a, std::size_t n2p, float* pc,
                          float* ps, float* out) {
  float vr0 = 0, vi0 = 0, vr1 = 0, vi1 = 0;
  float vr2 = 0, vi2 = 0, vr3 = 0, vi3 = 0;
  const float* sr0 = a.re[0];
  const float* si0 = a.im[0];
  const float* sr1 = a.re[1];
  const float* si1 = a.im[1];
  const float* sr2 = a.re[2];
  const float* si2 = a.im[2];
  const float* sr3 = a.re[3];
  const float* si3 = a.im[3];
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
  out[0] = vr0;
  out[1] = vi0;
  out[2] = vr1;
  out[3] = vi1;
  out[4] = vr2;
  out[5] = vi2;
  out[6] = vr3;
  out[7] = vi3;
}

/// The phase row of timestep t over the n2p pixels at wavenumber kc, and
/// with the recurrence the rotator's row n2p floats after it.
IDG_LOOPS_PHASES inline void pixel_phases(const DegridArgs& a,
                                          std::size_t n2p, std::size_t t,
                                          float kc, std::optional<float> dk,
                                          float* phase) {
  const float* const lp = a.l;
  const float* const mp = a.m;
  const float* const np = a.n;
  const float* const op = a.offset;
  const float u = a.u[t], v = a.v[t], w = a.w[t];
  if (dk) {
#pragma omp simd
    for (std::size_t j = 0; j < n2p; ++j) {
      const float base = u * lp[j] + v * mp[j] + w * np[j];
      phase[j] = op[j] - base * kc;
      phase[n2p + j] = -base * *dk;
    }
  } else {
#pragma omp simd
    for (std::size_t j = 0; j < n2p; ++j)
      phase[j] = op[j] - (u * lp[j] + v * mp[j] + w * np[j]) * kc;
  }
}

/// The degridder for one item of n2 pixels and nc channels: writes every
/// (timestep, channel) visibility of the item to a.out. Phase rows over the
/// pixels are evaluated in blocks that share one sincos call: per timestep
/// the channel-0 phasor and the rotator, or one row per visibility.
inline void degrid(std::size_t n2, std::size_t nc, const DegridArgs& a,
                   SincosFn sincos) {
  const std::size_t n2p = padded(n2);
  const float* const k = a.k;
  const std::optional<float> dk = channel_step(k, nc);
  float* const phase = a.phase;
  float* const pc = a.cos;
  float* const ps = a.sin;

  if (dk) {
    const std::size_t block =
        std::clamp<std::size_t>(kPhaseBatch / (2 * n2p), 1, a.nt);
    for (std::size_t t0 = 0; t0 < a.nt; t0 += block) {
      const std::size_t t1 = std::min(a.nt, t0 + block);
      for (std::size_t t = t0; t < t1; ++t)
        pixel_phases(a, n2p, t, k[0], dk, phase + (t - t0) * 2 * n2p);
      sincos((t1 - t0) * 2 * n2p, phase, ps, pc);
      for (std::size_t t = t0; t < t1; ++t) {
        float* const pct = pc + (t - t0) * 2 * n2p;
        float* const pst = ps + (t - t0) * 2 * n2p;
        // Every channel but the last advances the phasors in place.
        for (std::size_t c = 0; c + 1 < nc; ++c)
          reduce_pixels<true>(a, n2p, pct, pst, a.out + (t * nc + c) * 8);
        reduce_pixels<false>(a, n2p, pct, pst, a.out + (t * nc + nc - 1) * 8);
      }
    }
    return;
  }
  // Row r is visibility (r / nc, r % nc).
  const std::size_t nr = a.nt * nc;
  const std::size_t block = std::clamp<std::size_t>(kPhaseBatch / n2p, 1, nr);
  for (std::size_t r0 = 0; r0 < nr; r0 += block) {
    const std::size_t r1 = std::min(nr, r0 + block);
    for (std::size_t r = r0; r < r1; ++r)
      pixel_phases(a, n2p, r / nc, k[r % nc], dk, phase + (r - r0) * n2p);
    sincos((r1 - r0) * n2p, phase, ps, pc);
    for (std::size_t r = r0; r < r1; ++r)
      reduce_pixels<false>(a, n2p, pc + (r - r0) * n2p, ps + (r - r0) * n2p,
                           a.out + r * 8);
  }
}

}  // namespace idg::kernels::loops

#ifdef IDG_JIT_N2
// The entry points of one runtime-compiled shape: the loops above with the
// pixel and channel counts as compile-time constants and the polynomial
// sincos inlined.
extern "C" void idg_jit_grid(const idg::kernels::loops::GridArgs* args) {
  idg::kernels::loops::grid(IDG_JIT_N2, IDG_JIT_NC, *args,
                            &idg::kernels::loops::sincos_poly);
}

extern "C" void idg_jit_degrid(const idg::kernels::loops::DegridArgs* args) {
  idg::kernels::loops::degrid(IDG_JIT_N2, IDG_JIT_NC, *args,
                              &idg::kernels::loops::sincos_poly);
}
#endif

#endif  // IDG_KERNELS_LOOPS_HPP
