// Iteration helpers for layout-agnostic CPU kernels.
//
// Kernels iterate in the memory order of their primary output (for locality)
// while addressing every operand through per-dimension strides, so any data
// layout executes correctly -- layout only affects speed, as on the GPU.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"

namespace xflow::ops {

/// Strided accessor over up to four named loop dimensions. Dimensions the
/// tensor lacks get stride 0 (broadcast); extra tensor dims are not allowed.
template <typename T, int N>
struct View {
  T* ptr = nullptr;
  std::array<std::int64_t, N> stride{};

  template <typename TensorLike>
  static View Bind(TensorLike& t, const std::array<char, N>& dims) {
    View v;
    v.ptr = t.data();
    for (int d = 0; d < N; ++d) {
      v.stride[static_cast<std::size_t>(d)] =
          t.shape().has(dims[static_cast<std::size_t>(d)])
              ? t.stride(dims[static_cast<std::size_t>(d)])
              : 0;
    }
    return v;
  }
};

/// Strides of a *canonical* (alphabetically ordered, row-major) layout of
/// `shape`. Dropout masks are indexed canonically so that the same element
/// keeps/drops regardless of the layout a kernel runs in.
inline std::array<std::int64_t, 4> CanonicalStrides(
    const Shape& shape, const std::array<char, 4>& dims) {
  std::string sorted;
  for (const auto& d : shape.dims()) sorted += d.name;
  std::sort(sorted.begin(), sorted.end());
  std::array<std::int64_t, 4> out{};
  for (int d = 0; d < 4; ++d) {
    const char name = dims[static_cast<std::size_t>(d)];
    if (!shape.has(name)) {
      out[static_cast<std::size_t>(d)] = 0;
      continue;
    }
    std::int64_t acc = 1;
    for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
      if (*it == name) break;
      acc *= shape.extent(*it);
    }
    out[static_cast<std::size_t>(d)] = acc;
  }
  return out;
}

}  // namespace xflow::ops
