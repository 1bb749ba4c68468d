#include "tensor/workspace.hpp"

#include <algorithm>
#include <cstring>

#include "common/threadpool.hpp"
#include "tensor/buffer.hpp"
#include "tensor/memstats.hpp"

namespace xflow {

Workspace::~Workspace() { Release(); }

Workspace::Workspace(Workspace&& other) noexcept
    : slab_(other.slab_), capacity_(other.capacity_) {
  other.slab_ = nullptr;
  other.capacity_ = 0;
}

Workspace& Workspace::operator=(Workspace&& other) noexcept {
  if (this != &other) {
    Release();
    slab_ = other.slab_;
    capacity_ = other.capacity_;
    other.slab_ = nullptr;
    other.capacity_ = 0;
  }
  return *this;
}

void Workspace::Release() {
  FreeBuffer(slab_, capacity_);
  slab_ = nullptr;
  capacity_ = 0;
}

void Workspace::Reserve(std::size_t bytes) {
  bytes = AlignUp(bytes);
  if (bytes <= capacity_) return;
  Release();
  slab_ = static_cast<std::byte*>(AllocateBuffer(bytes));
  capacity_ = bytes;
  memstats::RecordWorkspaceAlloc(static_cast<std::int64_t>(bytes));
  // Zero with a parallel first touch: page placement follows the threads
  // that will later run the kernels, and planned-vs-owning comparisons
  // start from a deterministic state.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::byte* slab = slab_;
  if (bytes <= kChunk) {
    std::memset(slab, 0, bytes);
    return;
  }
  const auto chunks =
      static_cast<std::int64_t>((bytes + kChunk - 1) / kChunk);
  ParallelFor(chunks, 1, [slab, bytes](std::int64_t c) {
    const std::size_t begin = static_cast<std::size_t>(c) * kChunk;
    const std::size_t end = std::min(bytes, begin + kChunk);
    std::memset(slab + begin, 0, end - begin);
  });
}

}  // namespace xflow
