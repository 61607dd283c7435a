// Reference gridder and degridder — a direct transcription of the paper's
// Algorithm 1 and Algorithm 2 with the subgrid-position phase offsets of
// DESIGN.md §6:
//
//   gridder:   S(y,x)  = sum_{t,c} V(t,c) * exp(+i*phi),
//   degridder: V(t,c)  = sum_{y,x} S(y,x) * exp(-i*phi),
//   phi = 2*pi * [ (u_c - u0)*l + (v_c - v0)*m + (w_c - w0)*n ]
//       = (u_m*l + v_m*m + w_m*n) * k_c  -  phase_offset(y,x),
//
// where k_c = 2*pi*f_c/c scales meters to radians, and phase_offset bakes in
// the subgrid's uv-centre (u0, v0) and W-plane offset w0. The per-pixel
// geometry term (u_m*l + v_m*m + w_m*n) is channel-independent, which is why
// the inner loop costs exactly one FMA + one sincos + 16 FMAs per
// (pixel, time, channel) — the paper's rho = 17 operation mix.
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/error.hpp"
#include "idg/kernels.hpp"

namespace idg {

namespace {

constexpr float kTwoPi = static_cast<float>(2.0 * std::numbers::pi);

/// uv-centre of a work item's patch in wavelengths, times 2*pi (so that
/// phase_offset = u0_2pi*l + v0_2pi*m + w0_2pi*n is immediate).
struct PatchOffsets {
  float u0_2pi, v0_2pi, w0_2pi;
};

PatchOffsets patch_offsets(const Parameters& params, const WorkItem& item) {
  const float cell_scale = kTwoPi / static_cast<float>(params.image_size);
  const float u0 = (static_cast<float>(item.coord_x) +
                    static_cast<float>(params.subgrid_size) / 2.0f -
                    static_cast<float>(params.grid_size) / 2.0f);
  const float v0 = (static_cast<float>(item.coord_y) +
                    static_cast<float>(params.subgrid_size) / 2.0f -
                    static_cast<float>(params.grid_size) / 2.0f);
  return {u0 * cell_scale, v0 * cell_scale, kTwoPi * item.w_offset};
}

// ---- Accumulation::kDouble path (DESIGN.md §13) ---------------------------
//
// Same algorithms with phases, phasors, A-term sandwich and polarization
// accumulators evaluated in double; the result rounds to the cfloat subgrid
// storage once at the end. This removes the ~1.5e-3 float phase-error floor
// and is what the "standard" and "science" epsilon tiers run on. Kept as a
// separate implementation (not a template over the float path) so the
// single-precision path stays bit-identical to the pre-contract code.

constexpr double kTwoPiD = 2.0 * std::numbers::pi;

struct PatchOffsetsD {
  double u0_2pi, v0_2pi, w0_2pi;
};

PatchOffsetsD patch_offsets_d(const Parameters& params, const WorkItem& item) {
  const double cell_scale = kTwoPiD / params.image_size;
  const double u0 = (static_cast<double>(item.coord_x) +
                     static_cast<double>(params.subgrid_size) / 2.0 -
                     static_cast<double>(params.grid_size) / 2.0);
  const double v0 = (static_cast<double>(item.coord_y) +
                     static_cast<double>(params.subgrid_size) / 2.0 -
                     static_cast<double>(params.grid_size) / 2.0);
  return {u0 * cell_scale, v0 * cell_scale,
          kTwoPiD * static_cast<double>(item.w_offset)};
}

double compute_n_d(double l, double m) {
  const double r2 = l * l + m * m;
  return r2 >= 1.0 ? 1.0 : 1.0 - std::sqrt(1.0 - r2);
}

Matrix2x2<double> widen(const Jones& a) {
  return {std::complex<double>(a.xx), std::complex<double>(a.xy),
          std::complex<double>(a.yx), std::complex<double>(a.yy)};
}

void grid_double(const Parameters& params, const KernelData& data,
                 std::span<const WorkItem> items,
                 ArrayView<const Visibility, 3> visibilities,
                 ArrayView<cfloat, 4> subgrids) {
  const std::size_t n = params.subgrid_size;
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& item = items[i];
    IDG_ASSERT(static_cast<std::size_t>(item.aterm_slot) < data.aterms.dim(0),
               "A-term slot out of range");
    const PatchOffsetsD off = patch_offsets_d(params, item);

    for (std::size_t y = 0; y < n; ++y) {
      const double m = params.subgrid_lm_d(y);
      for (std::size_t x = 0; x < n; ++x) {
        const double l = params.subgrid_lm_d(x);
        const double pn = compute_n_d(l, m);
        const double phase_offset =
            off.u0_2pi * l + off.v0_2pi * m + off.w0_2pi * pn;

        std::complex<double> acc[kNrPolarizations] = {};
        for (int t = 0; t < item.nr_timesteps; ++t) {
          const UVW& coord =
              data.uvw(static_cast<std::size_t>(item.baseline),
                       static_cast<std::size_t>(item.time_begin + t));
          const double base = static_cast<double>(coord.u) * l +
                              static_cast<double>(coord.v) * m +
                              static_cast<double>(coord.w) * pn;
          for (int c = 0; c < item.nr_channels; ++c) {
            const std::size_t ch =
                static_cast<std::size_t>(item.channel_begin + c);
            const double phase =
                base * static_cast<double>(data.wavenumbers[ch]) -
                phase_offset;
            const std::complex<double> phasor(std::cos(phase),
                                              std::sin(phase));
            const Visibility& vis =
                visibilities(static_cast<std::size_t>(item.baseline),
                             static_cast<std::size_t>(item.time_begin + t),
                             ch);
            for (int p = 0; p < kNrPolarizations; ++p)
              acc[p] += std::complex<double>(vis[p]) * phasor;
          }
        }

        const Jones& a1 =
            data.aterms(static_cast<std::size_t>(item.aterm_slot),
                        static_cast<std::size_t>(item.station1), y, x);
        const Jones& a2 =
            data.aterms(static_cast<std::size_t>(item.aterm_slot),
                        static_cast<std::size_t>(item.station2), y, x);
        Matrix2x2<double> pixel{acc[0], acc[1], acc[2], acc[3]};
        pixel = widen(a1).adjoint() * pixel * widen(a2);
        pixel *= std::complex<double>(data.taper(y, x), 0.0);
        for (int p = 0; p < kNrPolarizations; ++p)
          subgrids(i, static_cast<std::size_t>(p), y, x) =
              cfloat(static_cast<float>(pixel[p].real()),
                     static_cast<float>(pixel[p].imag()));
      }
    }
  }
}

void degrid_double(const Parameters& params, const KernelData& data,
                   std::span<const WorkItem> items,
                   ArrayView<const cfloat, 4> subgrids,
                   ArrayView<Visibility, 3> visibilities) {
  const std::size_t n = params.subgrid_size;
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < items.size(); ++i) {
    const WorkItem& item = items[i];
    IDG_ASSERT(static_cast<std::size_t>(item.aterm_slot) < data.aterms.dim(0),
               "A-term slot out of range");
    const PatchOffsetsD off = patch_offsets_d(params, item);

    std::vector<Matrix2x2<double>> pixels(n * n);
    std::vector<double> lmn(3 * n * n);
    std::vector<double> offsets(n * n);
    for (std::size_t y = 0; y < n; ++y) {
      const double m = params.subgrid_lm_d(y);
      for (std::size_t x = 0; x < n; ++x) {
        const double l = params.subgrid_lm_d(x);
        const double pn = compute_n_d(l, m);
        const std::size_t idx = y * n + x;
        lmn[3 * idx + 0] = l;
        lmn[3 * idx + 1] = m;
        lmn[3 * idx + 2] = pn;
        offsets[idx] = off.u0_2pi * l + off.v0_2pi * m + off.w0_2pi * pn;

        Matrix2x2<double> pixel{
            std::complex<double>(subgrids(i, 0, y, x)),
            std::complex<double>(subgrids(i, 1, y, x)),
            std::complex<double>(subgrids(i, 2, y, x)),
            std::complex<double>(subgrids(i, 3, y, x))};
        const Jones& a1 =
            data.aterms(static_cast<std::size_t>(item.aterm_slot),
                        static_cast<std::size_t>(item.station1), y, x);
        const Jones& a2 =
            data.aterms(static_cast<std::size_t>(item.aterm_slot),
                        static_cast<std::size_t>(item.station2), y, x);
        pixel = widen(a1) * pixel * widen(a2).adjoint();
        pixel *= std::complex<double>(data.taper(y, x), 0.0);
        pixels[idx] = pixel;
      }
    }

    for (int t = 0; t < item.nr_timesteps; ++t) {
      const UVW& coord =
          data.uvw(static_cast<std::size_t>(item.baseline),
                   static_cast<std::size_t>(item.time_begin + t));
      for (int c = 0; c < item.nr_channels; ++c) {
        const std::size_t ch =
            static_cast<std::size_t>(item.channel_begin + c);
        const double k = static_cast<double>(data.wavenumbers[ch]);
        std::complex<double> acc[kNrPolarizations] = {};
        for (std::size_t idx = 0; idx < n * n; ++idx) {
          const double base = static_cast<double>(coord.u) * lmn[3 * idx + 0] +
                              static_cast<double>(coord.v) * lmn[3 * idx + 1] +
                              static_cast<double>(coord.w) * lmn[3 * idx + 2];
          const double phase = offsets[idx] - base * k;
          const std::complex<double> phasor(std::cos(phase), std::sin(phase));
          const Matrix2x2<double>& pix = pixels[idx];
          for (int p = 0; p < kNrPolarizations; ++p)
            acc[p] += pix[p] * phasor;
        }
        Visibility& out =
            visibilities(static_cast<std::size_t>(item.baseline),
                         static_cast<std::size_t>(item.time_begin + t), ch);
        for (int p = 0; p < kNrPolarizations; ++p)
          out[p] = cfloat(static_cast<float>(acc[p].real()),
                          static_cast<float>(acc[p].imag()));
      }
    }
  }
}

class ReferenceKernels final : public KernelSet {
 public:
  std::string name() const override { return "reference"; }

  bool implements(Accumulation) const override { return true; }

  void grid(const Parameters& params, const KernelData& data,
            std::span<const WorkItem> items,
            ArrayView<const Visibility, 3> visibilities,
            ArrayView<cfloat, 4> subgrids) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(1) == 4 &&
                  subgrids.dim(2) == n && subgrids.dim(3) == n,
              "subgrid buffer shape mismatch");
    if (params.accumulation == Accumulation::kDouble)
      return grid_double(params, data, items, visibilities, subgrids);

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      const WorkItem& item = items[i];
      IDG_ASSERT(static_cast<std::size_t>(item.aterm_slot) < data.aterms.dim(0),
                 "A-term slot out of range");
      const PatchOffsets off = patch_offsets(params, item);

      for (std::size_t y = 0; y < n; ++y) {
        const float m = params.subgrid_lm(y);
        for (std::size_t x = 0; x < n; ++x) {
          const float l = params.subgrid_lm(x);
          const float pn = compute_n(l, m);
          const float phase_offset =
              off.u0_2pi * l + off.v0_2pi * m + off.w0_2pi * pn;

          cfloat acc[kNrPolarizations] = {};
          for (int t = 0; t < item.nr_timesteps; ++t) {
            const UVW& coord =
                data.uvw(static_cast<std::size_t>(item.baseline),
                         static_cast<std::size_t>(item.time_begin + t));
            const float base = coord.u * l + coord.v * m + coord.w * pn;
            for (int c = 0; c < item.nr_channels; ++c) {
              const std::size_t ch =
                  static_cast<std::size_t>(item.channel_begin + c);
              const float phase = base * data.wavenumbers[ch] - phase_offset;
              const cfloat phasor(std::cos(phase), std::sin(phase));
              const Visibility& vis =
                  visibilities(static_cast<std::size_t>(item.baseline),
                               static_cast<std::size_t>(item.time_begin + t),
                               ch);
              for (int p = 0; p < kNrPolarizations; ++p)
                acc[p] += vis[p] * phasor;
            }
          }

          // A-term sandwich (adjoint correction) and taper.
          const Jones& a1 = data.aterms(
              static_cast<std::size_t>(item.aterm_slot),
              static_cast<std::size_t>(item.station1), y, x);
          const Jones& a2 = data.aterms(
              static_cast<std::size_t>(item.aterm_slot),
              static_cast<std::size_t>(item.station2), y, x);
          Matrix2x2<float> pixel{acc[0], acc[1], acc[2], acc[3]};
          pixel = a1.adjoint() * pixel * a2;
          pixel *= cfloat(data.taper(y, x), 0.0f);
          for (int p = 0; p < kNrPolarizations; ++p)
            subgrids(i, static_cast<std::size_t>(p), y, x) = pixel[p];
        }
      }
    }
  }

  void degrid(const Parameters& params, const KernelData& data,
              std::span<const WorkItem> items,
              ArrayView<const cfloat, 4> subgrids,
              ArrayView<Visibility, 3> visibilities) const override {
    const std::size_t n = params.subgrid_size;
    IDG_CHECK(subgrids.dim(0) >= items.size() && subgrids.dim(1) == 4 &&
                  subgrids.dim(2) == n && subgrids.dim(3) == n,
              "subgrid buffer shape mismatch");
    if (params.accumulation == Accumulation::kDouble)
      return degrid_double(params, data, items, subgrids, visibilities);

#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < items.size(); ++i) {
      const WorkItem& item = items[i];
      IDG_ASSERT(static_cast<std::size_t>(item.aterm_slot) < data.aterms.dim(0),
                 "A-term slot out of range");
      const PatchOffsets off = patch_offsets(params, item);

      // Pre-correct all pixels (Algorithm 2 lines 2-3) and cache geometry.
      std::vector<Matrix2x2<float>> pixels(n * n);
      std::vector<float> lmn(3 * n * n);
      std::vector<float> offsets(n * n);
      for (std::size_t y = 0; y < n; ++y) {
        const float m = params.subgrid_lm(y);
        for (std::size_t x = 0; x < n; ++x) {
          const float l = params.subgrid_lm(x);
          const float pn = compute_n(l, m);
          const std::size_t idx = y * n + x;
          lmn[3 * idx + 0] = l;
          lmn[3 * idx + 1] = m;
          lmn[3 * idx + 2] = pn;
          offsets[idx] = off.u0_2pi * l + off.v0_2pi * m + off.w0_2pi * pn;

          Matrix2x2<float> pixel{subgrids(i, 0, y, x), subgrids(i, 1, y, x),
                                 subgrids(i, 2, y, x), subgrids(i, 3, y, x)};
          const Jones& a1 = data.aterms(
              static_cast<std::size_t>(item.aterm_slot),
              static_cast<std::size_t>(item.station1), y, x);
          const Jones& a2 = data.aterms(
              static_cast<std::size_t>(item.aterm_slot),
              static_cast<std::size_t>(item.station2), y, x);
          pixel = a1 * pixel * a2.adjoint();
          pixel *= cfloat(data.taper(y, x), 0.0f);
          pixels[idx] = pixel;
        }
      }

      for (int t = 0; t < item.nr_timesteps; ++t) {
        const UVW& coord =
            data.uvw(static_cast<std::size_t>(item.baseline),
                     static_cast<std::size_t>(item.time_begin + t));
        for (int c = 0; c < item.nr_channels; ++c) {
          const std::size_t ch =
              static_cast<std::size_t>(item.channel_begin + c);
          const float k = data.wavenumbers[ch];
          cfloat acc[kNrPolarizations] = {};
          for (std::size_t idx = 0; idx < n * n; ++idx) {
            const float base = coord.u * lmn[3 * idx + 0] +
                               coord.v * lmn[3 * idx + 1] +
                               coord.w * lmn[3 * idx + 2];
            const float phase = offsets[idx] - base * k;
            const cfloat phasor(std::cos(phase), std::sin(phase));
            const Matrix2x2<float>& pix = pixels[idx];
            for (int p = 0; p < kNrPolarizations; ++p)
              acc[p] += pix[p] * phasor;
          }
          Visibility& out =
              visibilities(static_cast<std::size_t>(item.baseline),
                           static_cast<std::size_t>(item.time_begin + t), ch);
          for (int p = 0; p < kNrPolarizations; ++p) out[p] = acc[p];
        }
      }
    }
  }
};

}  // namespace

const KernelSet& reference_kernels() {
  static const ReferenceKernels kernels;
  return kernels;
}

}  // namespace idg
