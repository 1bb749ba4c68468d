// Owning storage for tensor buffers and workspace slabs.
//
// Buffers of 128 KiB or more are mapped straight from the OS and unmapped
// on release; smaller ones come from aligned operator new.
// Going around malloc for the large ones keeps peak RSS equal to the bytes
// actually live. glibc raises its mmap threshold to the size of every
// mapped chunk it frees, so after the first multi-MiB tensor is released,
// buffers up to that size are carved from the heap instead, and a small
// long-lived allocation above them (an einsum table, an autotune entry)
// keeps their pages resident after they are freed. How much stays
// resident then depends on thread timing: speeding up the kernels alone
// once moved a training run's peak RSS from 98.5 to 115.7 MiB with the same
// 87 MiB live.
//
// Under AddressSanitizer every buffer comes from operator new, so the
// sanitizer's redzones cover the large ones too.
#pragma once

#include <cstddef>

namespace xflow {

/// `bytes` of 64-byte-aligned storage; throws std::bad_alloc on failure.
[[nodiscard]] void* AllocateBuffer(std::size_t bytes);

/// Releases storage from AllocateBuffer(bytes), given the same byte count.
void FreeBuffer(void* p, std::size_t bytes) noexcept;

}  // namespace xflow
