#include "tensor/buffer.hpp"

#include <new>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define XFLOW_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define XFLOW_ASAN 1
#endif

#if (defined(__unix__) || defined(__APPLE__)) && !defined(XFLOW_ASAN)
#include <sys/mman.h>
#define XFLOW_MAPPED_BUFFERS 1
#endif

namespace xflow {

namespace {
constexpr std::size_t kAlignment = 64;
#if defined(XFLOW_MAPPED_BUFFERS)
// Buffers this size or larger are mapped directly (glibc's initial mmap
// threshold).
constexpr std::size_t kMappedBufferBytes = std::size_t{1} << 17;
#endif
}  // namespace

void* AllocateBuffer(std::size_t bytes) {
#if defined(XFLOW_MAPPED_BUFFERS)
  if (bytes >= kMappedBufferBytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;  // page-aligned
  }
#endif
  return ::operator new(bytes, std::align_val_t{kAlignment});
}

void FreeBuffer(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
#if defined(XFLOW_MAPPED_BUFFERS)
  if (bytes >= kMappedBufferBytes) {
    munmap(p, bytes);
    return;
  }
#endif
  (void)bytes;
  ::operator delete(p, std::align_val_t{kAlignment});
}

}  // namespace xflow
