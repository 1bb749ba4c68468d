// Structural classification of einsum contractions (the lowering taxonomy).
//
// Every contraction flattens to a (batched) GEMM of extents (m, n, k,
// batch), but most of the degenerate shapes deserve cheaper kernels than
// the macro-tile/pack GEMM pipeline: a matrix-vector product has no B
// panel to pack, an outer product performs one multiply per output
// element, a pure reduction is a dot product, and a contraction with
// every GEMM dim degenerate is just a scaled copy. ClassifyContraction
// derives the class from the extents alone; ClassifyEinsum
// (tensor/einsum.hpp) applies it once per (spec, operand shapes) site and
// caches the result, and every execution decision -- the kernel
// EinsumLowered runs, the autotuner's bucket key -- takes the class from
// that cache.
#pragma once

#include <cstdint>
#include <string_view>

namespace xflow {

/// Flattened GEMM dimensions of a contraction (used by the device model
/// and the lowering classification).
struct GemmExtents {
  std::int64_t m = 1, n = 1, k = 1, batch = 1;
};

/// The lowering class of a contraction. Classes describe the *inner*
/// GEMM; a batched gemv is still kGemv (the batch loop wraps any class,
/// and kBatchedGemm is the batch>1 case of the full-rank pipeline).
enum class EinsumClass {
  kUnclassified,  // no class given: EinsumLowered classifies on the fly
  kGemm,          // m, n, k > 1, single batch: the generic pipeline
  kBatchedGemm,   // m, n, k > 1 across batch > 1 strided GEMMs
  kGemv,          // exactly one of m/n is 1 with k > 1: matrix x vector
  kGer,           // k == 1 with m, n > 1: outer product, one FMA per output
  kReduction,     // m == n == 1 with k > 1: a dot product per batch
  kView,          // k == 1 and (m == 1 or n == 1): a transpose-free
                  // scaled copy -- no contraction arithmetic at all
};

/// Class of the given extents. Total classification: never returns
/// kUnclassified.
constexpr EinsumClass ClassifyContraction(const GemmExtents& e) {
  const bool m1 = e.m == 1, n1 = e.n == 1, k1 = e.k == 1;
  if (k1 && (m1 || n1)) return EinsumClass::kView;
  if (m1 && n1) return EinsumClass::kReduction;
  if (k1) return EinsumClass::kGer;
  if (m1 || n1) return EinsumClass::kGemv;
  return e.batch > 1 ? EinsumClass::kBatchedGemm : EinsumClass::kGemm;
}

/// Stable lowercase names ("gemv", "batched-gemm", ...) for diagnostics.
std::string_view ToString(EinsumClass cls);

}  // namespace xflow
