// FFT substrate for the IDG reproduction.
//
// The paper uses MKL (CPU), cuFFT and clFFT (GPU) for the subgrid and grid
// transforms. Neither FFTW nor MKL is available in this container, so this
// module implements the transform from scratch (see DESIGN.md §2):
//
//  * one batched Stockham (autosort) executor with radix-4/2/3/5/7
//    butterflies for lengths whose factors are in {2, 3, 5, 7} — every size
//    the pipelines use (subgrids 8..64 = 2^a*3^b, grids = powers of two,
//    w-projection screens with factors 5 and 7);
//  * Bluestein's chirp-z algorithm for every other length (including
//    primes), run on the same executor, so the library never rejects a
//    size;
//  * 2-D transforms as a column pass over blocks of adjacent columns and a
//    row pass through block transposes;
//  * the centred transform shift o FFT o shift both pipelines use, and a
//    process-wide cache of 2-D plans;
//  * fftshift helpers (the grids keep DC at the center pixel N/2).
//
// The executor transforms kLanes sequences side by side. A block holds them
// split into real and imaginary parts, element-major: element j of lane b
// sits at re[j * kLanes + b]. Every butterfly's innermost loop runs over the
// kLanes lanes with explicit re/im arithmetic, so it vectorises in both
// float and double. Partial blocks are zero-padded to kLanes, so a sequence
// gets bitwise the same result whichever block and lane it runs in.
//
// Conventions: Forward uses exp(-2*pi*i*jk/n), Backward uses exp(+2*pi*i*jk/n);
// both are UNNORMALIZED. Callers apply 1/N scaling where DESIGN.md §6
// requires it.
//
// Execution is allocation-free apart from a caller-provided Workspace of
// O(n * kLanes) elements, one per thread, which makes the batched subgrid
// transforms trivially OpenMP-parallel.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <memory>
#include <numbers>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"

namespace idg::fft {

enum class Direction {
  Forward,   ///< exp(-2*pi*i*jk/n)
  Backward,  ///< exp(+2*pi*i*jk/n)
};

/// Sequences the executor transforms side by side (the width of a block).
inline constexpr std::size_t kLanes = 16;

/// Scratch memory reused across executions. One Workspace per thread; it
/// grows on demand and is never shrunk.
template <typename T>
class Workspace {
 public:
  T* get(std::size_t size) {
    if (buffer_.size() < size) buffer_.resize(size);
    return buffer_.data();
  }

 private:
  AlignedVector<T> buffer_;
};

template <typename T>
class Plan2D;

/// One-dimensional complex-to-complex FFT plan of fixed length and
/// direction. Thread-safe for concurrent execute calls as long as each
/// thread passes its own Workspace.
template <typename T>
class Plan {
 public:
  Plan(std::size_t n, Direction direction);

  std::size_t size() const { return n_; }
  Direction direction() const { return direction_; }

  /// Transforms n elements read from `in` with stride `in_stride` into the
  /// contiguous output `out`.
  void execute(const std::complex<T>* in, std::size_t in_stride,
               std::complex<T>* out, Workspace<T>& ws) const;

  /// In-place contiguous transform.
  void execute_inplace(std::complex<T>* data, Workspace<T>& ws) const;

 private:
  friend class Plan2D<T>;

  /// Factor applied to every sample as a block is loaded or stored: scale,
  /// negated for element j of sequence s when checkerboard and j + s is odd.
  struct Weight {
    T scale = 1;
    bool checkerboard = false;
  };

  /// One Stockham pass: its radix r, the length ns the earlier passes
  /// combined, the twiddles w_{ns*r}^(q*k) at [k * (r-1) + q-1] for k < ns
  /// and q = 1..r-1, and w_r^i at rot[i] for the radix-3/5/7 butterflies.
  struct Stage {
    int radix = 0;
    std::size_t ns = 0;
    AlignedVector<T> tw_re, tw_im;
    T rot_re[7] = {};
    T rot_im[7] = {};
  };

  void build_stages();
  void build_bluestein();
  std::size_t workspace_size() const;
  /// Transforms `count` sequences, kLanes at a time: element j of sequence
  /// s is read from in[s * in_seq + j * in_elem] and written to
  /// out[s * out_seq + j * out_elem]. Each sequence's result is bitwise the
  /// one it gets alone.
  void transform(const std::complex<T>* in, std::size_t in_elem,
                 std::size_t in_seq, std::complex<T>* out,
                 std::size_t out_elem, std::size_t out_seq, std::size_t count,
                 T* scratch, Weight load, Weight store) const;
  /// Transforms the block in x ([n][kLanes] re, then im), using y (same
  /// size) and `extra` (Bluestein only) as scratch; returns x or y,
  /// whichever holds the result.
  T* run(T* x, T* y, T* extra) const;
  T* run_bluestein(T* x, T* extra) const;

  std::size_t n_;
  Direction direction_;
  std::vector<Stage> stages_;

  // Bluestein: x -> chirp * IFFT_m(FFT_m(chirp * x) * kernel) / m.
  std::unique_ptr<Plan> fwd_;
  std::unique_ptr<Plan> bwd_;
  AlignedVector<T> chirp_re_, chirp_im_;
  AlignedVector<T> kernel_re_, kernel_im_;
};

/// Two-dimensional complex FFT over a contiguous row-major rows x cols
/// array: a column pass over blocks of kLanes adjacent columns, then a row
/// pass over blocks of kLanes rows, each through a block transpose. Needs
/// O(max(rows, cols) * kLanes) workspace per thread.
template <typename T>
class Plan2D {
 public:
  Plan2D(std::size_t rows, std::size_t cols, Direction direction);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void execute_inplace(std::complex<T>* data, Workspace<T>& ws) const;

  /// The centred transform: data = scale * fftshift(FFT(ifftshift(data))),
  /// so both domains keep their centre at (rows/2, cols/2). For even sizes
  /// this equals checkerboard o FFT o checkerboard up to a global sign, and
  /// the signs and the scale ride on the passes' own loads and stores.
  /// Odd sizes shift through fftshift2d.
  void execute_centred(std::complex<T>* data, Workspace<T>& ws,
                       T scale = 1) const;

 private:
  void run(std::complex<T>* data, Workspace<T>& ws,
           typename Plan<T>::Weight load,
           typename Plan<T>::Weight store) const;

  std::size_t rows_;
  std::size_t cols_;
  Plan<T> col_plan_;  ///< length rows
  Plan<T> row_plan_;  ///< length cols
};

/// Process-wide cache of square n x n plans, built once per (n, direction)
/// and kept for the life of the process.
template <typename T>
const Plan2D<T>& cached_plan2d(std::size_t n, Direction direction);

/// Swaps quadrants so that the zero-frequency (or image-center) sample moves
/// between index 0 and index n/2 conventions. For even sizes this is an
/// involution and runs allocation-free (pairwise quadrant swap); for odd
/// sizes use shift=+1 (fftshift) / -1 (ifftshift).
template <typename T>
void fftshift2d(std::complex<T>* data, std::size_t rows, std::size_t cols,
                int sign = +1) {
  if (rows % 2 == 0 && cols % 2 == 0) {
    const std::size_t hr = rows / 2, hc = cols / 2;
    for (std::size_t r = 0; r < hr; ++r) {
      std::complex<T>* top = data + r * cols;
      std::complex<T>* bottom = data + (r + hr) * cols;
      for (std::size_t c = 0; c < hc; ++c) {
        std::swap(top[c], bottom[c + hc]);      // Q1 <-> Q4
        std::swap(top[c + hc], bottom[c]);      // Q2 <-> Q3
      }
    }
    return;
  }
  // Odd sizes: circular shift through a temporary.
  const std::size_t rshift =
      sign > 0 ? rows / 2 : rows - rows / 2;
  const std::size_t cshift =
      sign > 0 ? cols / 2 : cols - cols / 2;
  std::vector<std::complex<T>> tmp(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t rr = (r + rshift) % rows;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t cc = (c + cshift) % cols;
      tmp[rr * cols + cc] = data[r * cols + c];
    }
  }
  std::copy(tmp.begin(), tmp.end(), data);
}

/// Reference O(n^2) DFT used by the unit tests as ground truth.
template <typename T>
std::vector<std::complex<T>> naive_dft(const std::vector<std::complex<T>>& in,
                                       Direction direction) {
  const std::size_t n = in.size();
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  std::vector<std::complex<T>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * std::numbers::pi *
                           static_cast<double>((j * k) % n) /
                           static_cast<double>(n);
      acc += std::complex<double>(in[j]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = {static_cast<T>(acc.real()), static_cast<T>(acc.imag())};
  }
  return out;
}

}  // namespace idg::fft
