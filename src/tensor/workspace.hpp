// A reusable arena for activation memory: one aligned slab backing
// non-owning Tensor views at fixed (planner-chosen) offsets.
// Reserve(plan.PeakBytes()) once, then vend ViewAt(offset, shape) views at
// the offsets a liveness plan assigned -- the slab never moves, so views
// stay valid and steady-state steps perform zero allocations.
//
// Slab allocations report to memstats (the planner's instrumentation
// hook) and are zeroed with a parallel first touch so pages are faulted
// in across threads.
#pragma once

#include <cstddef>

#include "common/error.hpp"
#include "tensor/tensor.hpp"

namespace xflow {

class Workspace {
 public:
  /// Slab size granularity, and the usual plan alignment.
  static constexpr std::size_t kAlignment = 64;

  Workspace() = default;
  explicit Workspace(std::size_t bytes) { Reserve(bytes); }
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&& other) noexcept;
  Workspace& operator=(Workspace&& other) noexcept;

  /// Grows the slab to at least `bytes` (never shrinks; contents are not
  /// carried over -- the new slab is zeroed). Growing replaces the slab,
  /// invalidating every outstanding view: size up front when views must
  /// stay stable.
  void Reserve(std::size_t bytes);

  /// View of `shape` elements of T at a fixed byte offset (a planner
  /// placement). The view is valid until the slab is grown or destroyed.
  template <typename T>
  [[nodiscard]] Tensor<T> ViewAt(std::size_t offset_bytes, Shape shape) {
    const std::size_t bytes =
        static_cast<std::size_t>(shape.num_elements()) * sizeof(T);
    require(offset_bytes % alignof(T) == 0,
            "workspace view offset is misaligned for the element type");
    require(offset_bytes + bytes <= capacity_,
            "workspace view exceeds the reserved slab");
    return Tensor<T>::FromSpan(std::move(shape),
                               reinterpret_cast<T*>(slab_ + offset_bytes));
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::byte* data() { return slab_; }

  static constexpr std::size_t AlignUp(std::size_t v) {
    return (v + kAlignment - 1) / kAlignment * kAlignment;
  }

 private:
  void Release();

  std::byte* slab_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace xflow
