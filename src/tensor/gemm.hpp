// Blocked CPU GEMM with arbitrary per-dimension strides.
//
// This is the compute substrate standing in for cuBLAS: inputs may be fp16
// (Half) or fp32, and accumulation is always fp32, matching the paper's
// mixed-precision setup. Arbitrary layouts are supported through offset
// tables: the caller provides, for each of M/N/K, the memory offset of every
// index along that axis, which uniformly encodes any transposition or
// multi-dimensional flattening.
//
// Execution is parallel over the M x N macro-tile grid using the global
// ThreadPool (see common/threadpool.hpp; XFLOW_THREADS controls the count).
// Each output tile is computed start-to-finish by one thread with
// thread-local pack buffers and a fixed ascending-k accumulation order, so
// results are bitwise identical at every thread count.
#pragma once

#include <cstdint>
#include <span>

#include "common/half.hpp"

namespace xflow {

/// Number of independent macro-tiles GemmOffsets runs for an M x N output
/// -- the unit of intra-GEMM parallelism. Callers with many independent
/// GEMMs (batched einsum) use this to decide which level to parallelize.
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

// ---------------------------------------------------------------------
// Specialized kernels for the degenerate contraction classes (see
// tensor/einsum_class.hpp). None of them pay the macro-tile/pack
// pipeline, and every one performs, per output element, exactly the
// generic path's float-op sequence -- fp32 convert, ascending-k
// `acc += a * b` accumulation from 0.0f, `TOut(alpha * acc + prior)`
// writeback -- so results are bitwise identical to GemmOffsets at every
// thread count and for every row grain.

/// y[y_m[r]] = alpha * sum_k A[a_m[r] + a_k[k]] * x[x_k[k]] + beta * y[...]
/// Matrix-vector product (the n == 1 class; callers with m == 1 swap the
/// operand roles). Rows are partitioned over the pool in `row_grain`-row
/// chunks; each row is one serial ascending-k chain, so the grain is a
/// pure scheduling knob.
template <typename TIn, typename TOut>
void GemvOffsets(const TIn* a, const TIn* x, TOut* y,
                 std::span<const std::int64_t> a_m,
                 std::span<const std::int64_t> a_k,
                 std::span<const std::int64_t> x_k,
                 std::span<const std::int64_t> y_m, float alpha, float beta,
                 std::int64_t row_grain);

/// C[c_m[m] + c_n[n]] = alpha * A[a_m[m]] * B[b_n[n]] + beta * C[...]
/// Outer product (the k == 1 class): one multiply-accumulate per output
/// element, no packing. The caller folds the single k offset into the
/// operand base pointers. Rows (m) are partitioned in `row_grain` chunks.
template <typename TIn, typename TOut>
void GerOffsets(const TIn* a, const TIn* b, TOut* c,
                std::span<const std::int64_t> a_m,
                std::span<const std::int64_t> b_n,
                std::span<const std::int64_t> c_m,
                std::span<const std::int64_t> c_n, float alpha, float beta,
                std::int64_t row_grain);

/// c[0] = alpha * sum_k a[a_k[k]] * b[b_k[k]] + beta * c[0]
/// Pure reduction (m == n == 1): one serial ascending-k dot product --
/// the single output element must be one accumulation chain, so there is
/// nothing to parallelize below the batch level.
template <typename TIn, typename TOut>
void DotOffsets(const TIn* a, const TIn* b, TOut* c,
                std::span<const std::int64_t> a_k,
                std::span<const std::int64_t> b_k, float alpha, float beta);

/// out[out_t[r]] = alpha * (vec[vec_t[r]] * scalar) + beta * out[...]
/// The k == 1, single-free-dim "view" class: a transpose-free scaled
/// copy of the varying operand, the other operand reduced to one fp32
/// scalar by the caller. No contraction arithmetic at all.
template <typename TIn, typename TOut>
void ScaledCopyOffsets(const TIn* vec, float scalar, TOut* out,
                       std::span<const std::int64_t> vec_t,
                       std::span<const std::int64_t> out_t, float alpha,
                       float beta, std::int64_t row_grain);

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
