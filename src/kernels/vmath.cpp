#include "kernels/vmath.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace idg::vmath {

void sincos_batch(std::size_t n, const float* x, float* out_sin,
                  float* out_cos) {
  using namespace sincos_constants;
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

namespace {
constexpr std::size_t kLutBits = 12;
constexpr std::size_t kLutSize = 1u << kLutBits;  // 4096

struct LutTables {
  std::array<float, kLutSize + 1> sin_table;
  std::array<float, kLutSize + 1> cos_table;
  LutTables() {
    for (std::size_t i = 0; i <= kLutSize; ++i) {
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                           static_cast<double>(kLutSize);
      sin_table[i] = static_cast<float>(std::sin(angle));
      cos_table[i] = static_cast<float>(std::cos(angle));
    }
  }
};

const LutTables& lut() {
  static const LutTables tables;
  return tables;
}
}  // namespace

void sincos_lut(std::size_t n, const float* x, float* out_sin,
                float* out_cos) {
  const LutTables& t = lut();
  constexpr float kScale =
      static_cast<float>(kLutSize) / (2.0f * std::numbers::pi_v<float>);
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const float pos = x[i] * kScale;
    const float fl = std::floor(pos);
    const float frac = pos - fl;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(static_cast<std::int64_t>(fl)) &
        (kLutSize - 1);
    out_sin[i] =
        t.sin_table[idx] + frac * (t.sin_table[idx + 1] - t.sin_table[idx]);
    out_cos[i] =
        t.cos_table[idx] + frac * (t.cos_table[idx + 1] - t.cos_table[idx]);
  }
}

void sincos_libm(std::size_t n, const float* x, float* out_sin,
                 float* out_cos) {
  for (std::size_t i = 0; i < n; ++i) {
    out_sin[i] = std::sin(x[i]);
    out_cos[i] = std::cos(x[i]);
  }
}

}  // namespace idg::vmath
