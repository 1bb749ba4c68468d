// Blocked CPU GEMM with arbitrary per-dimension strides.
//
// This is the compute substrate standing in for cuBLAS, and the only kernel
// that runs a contraction: every einsum, degenerate shapes included (a
// matrix-vector product, an outer product, a dot product), is one
// GemmOffsets call per batch index. Inputs may be fp16 (Half) or fp32, and
// accumulation is always fp32, matching the paper's mixed-precision setup.
// Arbitrary layouts are supported through offset tables: the caller
// provides, for each of M/N/K, the memory offset of every index along that
// axis, which uniformly encodes any transposition or multi-dimensional
// flattening.
//
// GemmOffsets is a micro-panel GEMM (the BLIS/GotoBLAS layout):
// - Blocking. The output is cut into 192 x 256 blocks, one task each, and
//   K into 128-deep slices.
// - Panels. Per slice a task packs A into 8-row panels and B into
//   register-tile-wide column panels of fp32, converting fp16 once. Each
//   pack reads its operand in the operand's own memory order: an A panel
//   is [8][k] when k is unit-stride and [k][8] when m is; B is copied by
//   k-rows when n is unit-stride and by columns otherwise. Non-affine
//   offset tables keep their per-element lookups. Ragged edge panels are
//   zero-padded, so the kernel only ever runs full tiles.
// - Register tile. The kernel keeps an 8-row accumulator tile in vector
//   registers for a whole slice: 8 x 32 (16 accumulators) with AVX-512,
//   8 x 8 with AVX, 8 x 4 otherwise, so it never spills.
//
// Bitwise contract: every output element is one fp32 chain
// `acc += a * b` over k in ascending order from 0.0f (an FMA chain where
// the target has FMA), written back as TOut(alpha * acc + prior) with
// prior = beta * C, or 0 when beta == 0. The tile shape, the blocking and
// the thread count never change a bit; test_gemm_threaded pins the result
// to a serial loop.
//
// Execution is parallel over the block grid using the global ThreadPool
// (see common/threadpool.hpp; XFLOW_THREADS controls the count). Each
// block is computed start to finish by one thread with thread-local pack
// buffers, so results are bitwise identical at every thread count.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.hpp"

namespace xflow {

/// Number of independent output blocks GemmOffsets runs for an M x N
/// output -- the unit of intra-GEMM parallelism. Callers with many
/// independent GEMMs (batched einsum) use this to decide which level to
/// parallelize.
std::int64_t GemmTileCount(std::int64_t m, std::int64_t n);

/// C[c_m[m] + c_n[n]] = alpha * sum_k A[a_m[m] + a_k[k]] * B[b_k[k] + b_n[n]]
///                      + beta * C[...]
/// M, N, K are the table sizes. Accumulation is fp32.
template <typename TIn, typename TOut>
void GemmOffsets(const TIn* a, const TIn* b, TOut* c,
                 std::span<const std::int64_t> a_m,
                 std::span<const std::int64_t> a_k,
                 std::span<const std::int64_t> b_k,
                 std::span<const std::int64_t> b_n,
                 std::span<const std::int64_t> c_m,
                 std::span<const std::int64_t> c_n, float alpha, float beta);

extern template void GemmOffsets<Half, Half>(
    const Half*, const Half*, Half*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);
extern template void GemmOffsets<float, float>(
    const float*, const float*, float*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);
extern template void GemmOffsets<Half, float>(
    const Half*, const Half*, float*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);

}  // namespace xflow
