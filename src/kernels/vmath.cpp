#include "kernels/vmath.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "kernels/loops.hpp"

namespace idg::vmath {

void sincos_batch(std::size_t n, const float* x, float* out_sin,
                  float* out_cos) {
  kernels::loops::sincos_poly(n, x, out_sin, out_cos);
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
