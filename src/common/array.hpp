// Owning multi-dimensional arrays with contiguous row-major storage.
//
// These are the bulk data containers of the reproduction: visibility cubes
// ([baseline][time][channel]), subgrid stacks ([subgrid][pol][y][x]) and the
// master grid ([pol][y][x]). They provide:
//  * 64-byte aligned storage for the SIMD kernels, zeroed unless the
//    caller asks for it uninitialised,
//  * bounds-checked element access via operator() (checks compiled to
//    IDG_ASSERT so hot loops can index through raw pointers instead),
//  * cheap non-owning views for passing slices into kernels.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"

namespace idg {

namespace detail {
template <std::size_t Rank>
inline std::size_t product(const std::array<std::size_t, Rank>& dims) {
  return std::accumulate(dims.begin(), dims.end(), std::size_t{1},
                         std::multiplies<>());
}

/// The aligned allocator without value-initialisation: a vector of n
/// elements is left as allocated, and Array zeroes it unless asked not to.
/// Copies still construct (allocator_traits falls back to placement new).
template <typename T>
struct RawAllocator : AlignedAllocator<T> {
  template <typename U>
  struct rebind {
    using other = RawAllocator<U>;
  };
  RawAllocator() noexcept = default;
  template <typename U>
  RawAllocator(const RawAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U*) noexcept {}
};
}  // namespace detail

/// Tag for Array's constructors that leave the elements uninitialised, for
/// buffers the caller overwrites entirely before reading them.
struct Uninitialized {
  explicit Uninitialized() = default;
};
inline constexpr Uninitialized kUninitialized{};

/// Non-owning view over a contiguous row-major Rank-dimensional array.
template <typename T, std::size_t Rank>
class ArrayView {
 public:
  ArrayView() = default;
  ArrayView(T* data, std::array<std::size_t, Rank> dims)
      : data_(data), dims_(dims) {}

  /// Mutable views convert implicitly to const views.
  template <typename U>
    requires(!std::is_same_v<U, T> && std::is_convertible_v<U(*)[], T(*)[]>)
  ArrayView(const ArrayView<U, Rank>& other)  // NOLINT(google-explicit-constructor)
      : data_(other.data()), dims_(other.dims()) {}

  T* data() const { return data_; }
  std::size_t size() const { return detail::product(dims_); }
  std::size_t dim(std::size_t i) const { return dims_[i]; }
  const std::array<std::size_t, Rank>& dims() const { return dims_; }

  template <typename... Idx>
  T& operator()(Idx... idx) const {
    static_assert(sizeof...(Idx) == Rank, "index arity must equal rank");
    return data_[flatten(idx...)];
  }

  T* begin() const { return data_; }
  T* end() const { return data_ + size(); }

 private:
  template <typename... Idx>
  std::size_t flatten(Idx... idx) const {
    const std::array<std::size_t, Rank> ix{static_cast<std::size_t>(idx)...};
    std::size_t offset = 0;
    for (std::size_t d = 0; d < Rank; ++d) {
      IDG_ASSERT(ix[d] < dims_[d], "array index out of range (dim "
                                       << d << ": " << ix[d]
                                       << " >= " << dims_[d] << ")");
      offset = offset * dims_[d] + ix[d];
    }
    return offset;
  }

  T* data_ = nullptr;
  std::array<std::size_t, Rank> dims_{};
};

/// Owning row-major Rank-dimensional array with aligned storage, zeroed
/// by the calling thread unless constructed with kUninitialized.
template <typename T, std::size_t Rank>
class Array {
  static_assert(std::is_trivially_copyable_v<T>,
                "uninitialised storage needs trivially copyable elements");

 public:
  Array() : dims_{} {}

  explicit Array(std::array<std::size_t, Rank> dims)
      : Array(kUninitialized, dims) {
    zero();
  }
  Array(Uninitialized, std::array<std::size_t, Rank> dims)
      : dims_(dims), storage_(detail::product(dims)) {}

  template <typename... Dims>
    requires(sizeof...(Dims) == Rank)
  explicit Array(Dims... dims)
      : Array(std::array<std::size_t, Rank>{static_cast<std::size_t>(dims)...}) {}
  template <typename... Dims>
    requires(sizeof...(Dims) == Rank)
  Array(Uninitialized tag, Dims... dims)
      : Array(tag, std::array<std::size_t, Rank>{
                       static_cast<std::size_t>(dims)...}) {}

  std::size_t size() const { return storage_.size(); }
  std::size_t dim(std::size_t i) const { return dims_[i]; }
  const std::array<std::size_t, Rank>& dims() const { return dims_; }
  std::size_t bytes() const { return size() * sizeof(T); }

  T* data() { return storage_.data(); }
  const T* data() const { return storage_.data(); }

  void fill(const T& value) {
    std::fill(storage_.begin(), storage_.end(), value);
  }
  void zero() { fill(T{}); }

  template <typename... Idx>
  T& operator()(Idx... idx) {
    return view()(idx...);
  }
  template <typename... Idx>
  const T& operator()(Idx... idx) const {
    return cview()(idx...);
  }

  ArrayView<T, Rank> view() { return {storage_.data(), dims_}; }
  ArrayView<const T, Rank> cview() const { return {storage_.data(), dims_}; }

  auto begin() { return storage_.begin(); }
  auto end() { return storage_.end(); }
  auto begin() const { return storage_.begin(); }
  auto end() const { return storage_.end(); }

 private:
  std::array<std::size_t, Rank> dims_;
  std::vector<T, detail::RawAllocator<T>> storage_;
};

template <typename T>
using Array1D = Array<T, 1>;
template <typename T>
using Array2D = Array<T, 2>;
template <typename T>
using Array3D = Array<T, 3>;
template <typename T>
using Array4D = Array<T, 4>;

/// Per-visibility flag mask view ([baseline][time][channel]; nonzero =
/// flagged). A default-constructed (empty) view means "no samples flagged"
/// — the pipelines accept it wherever a mask is optional.
using FlagView = ArrayView<const std::uint8_t, 3>;

}  // namespace idg
