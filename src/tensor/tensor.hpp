// Strided, named-dimension tensors with fp16/fp32 element types.
//
// A Tensor either *owns* its storage (a 64-byte-aligned buffer, the
// default) or is a non-owning *view* into caller-managed memory -- a
// Workspace arena slot (FromSpan) or a contiguous slice of another
// tensor (SliceViewDim). Copying an owning tensor copies the bytes;
// copying a view aliases the same memory. Owning allocations report to
// memstats so tests can assert a planned steady-state step never touches
// the allocator.
//
// Bulk initialization (zero-fill, Random, Full, deep copies) runs in
// fixed-size chunks on the thread pool: values are a pure function of the
// element index, so results are bitwise identical at every thread count,
// and large buffers get their first touch spread across threads
// (NUMA-friendly page placement).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "tensor/buffer.hpp"
#include "tensor/memstats.hpp"
#include "tensor/shape.hpp"

namespace xflow {

namespace tensor_detail {
/// Runs fn(begin, end) over fixed 64K-element chunks on the pool (inline
/// when everything fits in one chunk). Fixed chunking keeps first-touch
/// placement and values independent of the thread count.
template <typename Fn>
void ForEachChunk(std::int64_t n, Fn&& fn) {
  constexpr std::int64_t kChunk = 1 << 16;
  if (n <= 0) return;
  if (n <= kChunk) {
    fn(std::int64_t{0}, n);
    return;
  }
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  ParallelFor(chunks, 1, [&](std::int64_t c) {
    fn(c * kChunk, std::min(n, (c + 1) * kChunk));
  });
}
}  // namespace tensor_detail

/// A dense tensor whose memory order equals its shape's dimension order
/// (row-major over that order). Changing the layout = Permuted() copy.
template <typename T>
class Tensor {
  static_assert(std::is_trivially_copyable_v<T>,
                "Tensor elements must be trivially copyable");

 public:
  /// Owning buffers are cache-line aligned (and thus SIMD-aligned).
  static constexpr std::size_t kAlignment = 64;

  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(std::move(shape)) {
    AllocateOwned();
    ZeroFill();
  }
  Tensor(std::string_view names, std::initializer_list<std::int64_t> extents)
      : Tensor(Shape(names, extents)) {}

  Tensor(const Tensor& other) : shape_(other.shape_) {
    if (other.data_ == nullptr) return;
    if (!other.owns_) {  // views alias, they do not copy
      data_ = other.data_;
      return;
    }
    AllocateOwned();
    CopyElements(other.data_, data_, size());
  }
  Tensor& operator=(const Tensor& other) {
    if (this != &other) *this = Tensor(other);
    return *this;
  }
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)), data_(other.data_),
        owns_(other.owns_) {
    other.data_ = nullptr;
    other.owns_ = false;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      Release();
      shape_ = std::move(other.shape_);
      data_ = other.data_;
      owns_ = other.owns_;
      other.data_ = nullptr;
      other.owns_ = false;
    }
    return *this;
  }
  ~Tensor() { Release(); }

  /// Uniform values in [-1, 1), deterministic in (seed) and independent of
  /// the thread count: element i is 2 * gen.UniformAt(i) - 1, drawn one
  /// Philox block per four elements.
  static Tensor Random(Shape shape, std::uint64_t seed) {
    Tensor t = Uninitialized(std::move(shape));
    const Philox4x32 gen(seed);
    T* data = t.data_;
    ForEachChunk(t.size(), [data, &gen](std::int64_t begin, std::int64_t end) {
      constexpr std::int64_t kBatch = 256;
      std::uint32_t words[kBatch];
      for (std::int64_t i = begin; i < end; i += kBatch) {
        const auto len = static_cast<std::size_t>(std::min(kBatch, end - i));
        gen.Words(static_cast<std::uint64_t>(i), 1, std::span(words, len));
        for (std::size_t w = 0; w < len; ++w) {
          data[i + static_cast<std::int64_t>(w)] =
              T(Philox4x32::Uniform(words[w]) * 2.0f - 1.0f);
        }
      }
    });
    return t;
  }

  static Tensor Full(Shape shape, float value) {
    Tensor t = Uninitialized(std::move(shape));
    T* data = t.data_;
    const T v = T(value);
    ForEachChunk(t.size(), [data, v](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) data[i] = v;
    });
    return t;
  }

  /// Non-owning view over caller-managed storage (e.g. a Workspace slab).
  /// `data` must hold shape.num_elements() elements and outlive every view
  /// of it; copies of the view alias the same memory.
  static Tensor FromSpan(Shape shape, T* data) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data;
    t.owns_ = false;
    return t;
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::string dim_order() const { return shape_.names(); }
  [[nodiscard]] std::int64_t extent(char d) const { return shape_.extent(d); }
  [[nodiscard]] std::int64_t stride(char d) const { return shape_.stride(d); }
  [[nodiscard]] std::int64_t size() const { return shape_.num_elements(); }
  /// False when this tensor aliases storage it does not own.
  [[nodiscard]] bool owns_data() const { return owns_ || data_ == nullptr; }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::span<T> values() {
    return {data_, data_ == nullptr ? 0 : static_cast<std::size_t>(size())};
  }
  [[nodiscard]] std::span<const T> values() const {
    return {data_, data_ == nullptr ? 0 : static_cast<std::size_t>(size())};
  }

  /// In-place (re)shape that reuses the current storage -- owning buffer
  /// or bound view -- whenever the element count already matches (contents
  /// are preserved, kernels overwrite them anyway). Otherwise allocates a
  /// fresh zeroed owning buffer; a view never matches a different element
  /// count, because planned storage is fixed, so that case throws.
  void EnsureShape(const Shape& shape) {
    if (data_ != nullptr && shape_.num_elements() == shape.num_elements()) {
      shape_ = shape;
      return;
    }
    require(owns_ || data_ == nullptr,
            "tensor view cannot be resized: its planned storage is fixed");
    *this = Tensor(shape);
  }

  /// Linear offset of a (dim, index) assignment. Dims not present are ignored
  /// so callers can pass a superset (handy for broadcast-style kernels).
  [[nodiscard]] std::int64_t OffsetOf(
      std::span<const std::pair<char, std::int64_t>> coords) const {
    std::int64_t off = 0;
    for (const auto& [d, i] : coords) {
      if (shape_.has(d)) off += i * shape_.stride(d);
    }
    return off;
  }

  /// Element access by named coordinates (test/reference path; slow).
  [[nodiscard]] T& at(
      std::initializer_list<std::pair<char, std::int64_t>> coords) {
    return data_[static_cast<std::size_t>(
        OffsetOf({coords.begin(), coords.size()}))];
  }
  [[nodiscard]] const T& at(
      std::initializer_list<std::pair<char, std::int64_t>> coords) const {
    return data_[static_cast<std::size_t>(
        OffsetOf({coords.begin(), coords.size()}))];
  }

  /// Copy with dimensions rearranged to `new_order` (a layout change).
  [[nodiscard]] Tensor Permuted(std::string_view new_order) const {
    Tensor out(shape_.Permuted(new_order));
    const auto& dims = shape_.dims();
    std::vector<std::int64_t> out_strides(dims.size());
    for (std::size_t d = 0; d < dims.size(); ++d) {
      out_strides[d] = out.shape_.stride(dims[d].name);
    }
    const auto in_strides = shape_.strides();
    ForEachIndex(shape_, [&](std::span<const std::int64_t> idx) {
      std::int64_t in_off = 0, out_off = 0;
      for (std::size_t d = 0; d < idx.size(); ++d) {
        in_off += idx[d] * in_strides[d];
        out_off += idx[d] * out_strides[d];
      }
      out.data_[static_cast<std::size_t>(out_off)] =
          data_[static_cast<std::size_t>(in_off)];
    });
    return out;
  }

  /// Same data, one dimension renamed (no copy of element order; the
  /// memory layout is untouched). Used where the paper reuses a tensor
  /// under another index name, e.g. keys indexed by k instead of j.
  /// On a view this is an aliasing relabel; on an owning tensor it copies.
  [[nodiscard]] Tensor RenamedDim(char from, char to) const {
    std::vector<DimExt> dims;
    for (const auto& de : shape_.dims()) {
      dims.push_back({de.name == from ? to : de.name, de.extent});
    }
    Tensor out = *this;
    out.shape_ = Shape(std::move(dims));
    return out;
  }

  /// Copy of the sub-tensor where dim `d` is restricted to
  /// [start, start+count). Used e.g. to split stacked Q/K/V weights.
  [[nodiscard]] Tensor SliceDim(char d, std::int64_t start,
                                std::int64_t count) const {
    require(start >= 0 && count > 0 && start + count <= extent(d),
            "slice out of range");
    std::vector<DimExt> dims;
    for (const auto& de : shape_.dims()) {
      dims.push_back({de.name, de.name == d ? count : de.extent});
    }
    Tensor out{Shape(std::move(dims))};
    const auto& dst_dims = out.shape_.dims();
    std::vector<std::int64_t> src_strides(dst_dims.size());
    for (std::size_t k = 0; k < dst_dims.size(); ++k) {
      src_strides[k] = shape_.stride(dst_dims[k].name);
    }
    const std::int64_t base = start * shape_.stride(d);
    const auto dst_strides = out.shape_.strides();
    ForEachIndex(out.shape_, [&](std::span<const std::int64_t> idx) {
      std::int64_t src = base, dst = 0;
      for (std::size_t k = 0; k < idx.size(); ++k) {
        src += idx[k] * src_strides[k];
        dst += idx[k] * dst_strides[k];
      }
      out.data_[static_cast<std::size_t>(dst)] =
          data_[static_cast<std::size_t>(src)];
    });
    return out;
  }

  /// Non-owning view of the range where the *outermost* dimension `d` is
  /// restricted to [start, start+count) -- such a slice is contiguous, so
  /// no copy is needed (the zero-cost split of a stacked Q/K/V block).
  /// The view aliases this tensor's storage and must not outlive it;
  /// writing through a view of a const tensor is the caller's bug.
  [[nodiscard]] Tensor SliceViewDim(char d, std::int64_t start,
                                    std::int64_t count) const {
    require(shape_.rank() > 0 && shape_.dims().front().name == d,
            "SliceViewDim requires the outermost dimension");
    require(start >= 0 && count > 0 && start + count <= extent(d),
            "slice out of range");
    std::vector<DimExt> dims;
    for (const auto& de : shape_.dims()) {
      dims.push_back({de.name, de.name == d ? count : de.extent});
    }
    return FromSpan(Shape(std::move(dims)),
                    const_cast<T*>(data_) + start * shape_.stride(d));
  }

  /// Element-type conversion (e.g. fp16 master copy of fp32 weights).
  template <typename U>
  [[nodiscard]] Tensor<U> Cast() const {
    Tensor<U> out(shape_);
    for (std::int64_t i = 0; i < size(); ++i) {
      out.data()[i] = U(float(data_[static_cast<std::size_t>(i)]));
    }
    return out;
  }

 private:
  static Tensor Uninitialized(Shape shape) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.AllocateOwned();
    return t;
  }

  [[nodiscard]] std::size_t Bytes() const {
    return static_cast<std::size_t>(shape_.num_elements()) * sizeof(T);
  }

  void AllocateOwned() {
    data_ = static_cast<T*>(AllocateBuffer(Bytes()));
    owns_ = true;
    memstats::RecordTensorAlloc(static_cast<std::int64_t>(Bytes()));
  }

  void Release() {
    if (owns_) FreeBuffer(data_, Bytes());
    data_ = nullptr;
    owns_ = false;
  }

  void ZeroFill() {
    // memset through void*: T is trivially copyable (asserted above) and
    // all-bits-zero is 0.0 for float and Half alike, matching the old
    // std::vector value-initialization.
    T* data = data_;
    ForEachChunk(size(), [data](std::int64_t begin, std::int64_t end) {
      std::memset(static_cast<void*>(data + begin), 0,
                  static_cast<std::size_t>(end - begin) * sizeof(T));
    });
  }

  static void CopyElements(const T* src, T* dst, std::int64_t n) {
    ForEachChunk(n, [src, dst](std::int64_t begin, std::int64_t end) {
      std::memcpy(static_cast<void*>(dst + begin), src + begin,
                  static_cast<std::size_t>(end - begin) * sizeof(T));
    });
  }

  template <typename Fn>
  static void ForEachChunk(std::int64_t n, Fn&& fn) {
    tensor_detail::ForEachChunk(n, std::forward<Fn>(fn));
  }

  Shape shape_;
  T* data_ = nullptr;
  bool owns_ = false;
};

/// Copies values between tensors of identical shape and memory order; a
/// no-op when both alias the same storage. Chunked on the pool like every
/// other bulk initializer (arena first-touch follows the kernel threads).
template <typename T>
void CopyValuesInto(const Tensor<T>& src, Tensor<T>& dst) {
  require(src.shape() == dst.shape(),
          "CopyValuesInto requires identical shapes");
  if (src.data() == dst.data()) return;
  const T* s = src.data();
  T* d = dst.data();
  tensor_detail::ForEachChunk(
      src.size(), [s, d](std::int64_t begin, std::int64_t end) {
        std::memcpy(static_cast<void*>(d + begin), s + begin,
                    static_cast<std::size_t>(end - begin) * sizeof(T));
      });
}

/// Concatenation of tensors along dim `d` (all other extents must match).
/// Models the paper's algebraic stacking, e.g. [dQ~ dK~ dV~].
template <typename T>
Tensor<T> ConcatDim(std::initializer_list<const Tensor<T>*> parts, char d) {
  require(parts.size() > 0, "nothing to concatenate");
  const Tensor<T>& first = **parts.begin();
  std::int64_t total = 0;
  for (const Tensor<T>* p : parts) total += p->extent(d);
  std::vector<DimExt> dims;
  for (const auto& de : first.shape().dims()) {
    dims.push_back({de.name, de.name == d ? total : de.extent});
  }
  Tensor<T> out{Shape(std::move(dims))};
  std::int64_t offset = 0;
  for (const Tensor<T>* part : parts) {
    const auto& shape = part->shape();
    const auto src_strides = shape.strides();
    std::vector<std::int64_t> dst_strides(shape.dims().size());
    for (std::size_t k = 0; k < shape.dims().size(); ++k) {
      dst_strides[k] = out.shape().stride(shape.dims()[k].name);
    }
    const std::int64_t base = offset * out.shape().stride(d);
    ForEachIndex(shape, [&](std::span<const std::int64_t> idx) {
      std::int64_t src = 0, dst = base;
      for (std::size_t k = 0; k < idx.size(); ++k) {
        src += idx[k] * src_strides[k];
        dst += idx[k] * dst_strides[k];
      }
      out.data()[dst] = part->data()[src];
    });
    offset += part->extent(d);
  }
  return out;
}

/// Largest absolute elementwise difference; tensors may differ in layout but
/// must have the same dimensions.
template <typename A, typename B>
double MaxAbsDiff(const Tensor<A>& a, const Tensor<B>& b) {
  require(a.size() == b.size(), "tensor sizes must match");
  const auto names = a.shape().names();
  double worst = 0;
  const auto a_strides = a.shape().strides();
  std::vector<std::int64_t> b_strides(names.size());
  for (std::size_t d = 0; d < names.size(); ++d) {
    b_strides[d] = b.shape().stride(names[d]);
  }
  ForEachIndex(a.shape(), [&](std::span<const std::int64_t> idx) {
    std::int64_t ao = 0, bo = 0;
    for (std::size_t d = 0; d < idx.size(); ++d) {
      ao += idx[d] * a_strides[d];
      bo += idx[d] * b_strides[d];
    }
    const double diff = std::fabs(double(float(a.data()[ao])) -
                                  double(float(b.data()[bo])));
    worst = std::max(worst, diff);
  });
  return worst;
}

using TensorF = Tensor<float>;
using TensorH = Tensor<Half>;

}  // namespace xflow
