// Structural classification of einsum contractions.
//
// Every contraction flattens to a (batched) GEMM of extents (m, n, k,
// batch) and runs on the one micro-panel GEMM (tensor/gemm.hpp), whatever
// its shape: degenerate extents (a gemv, an outer product, a dot product)
// are just small blocks of it. The class only tells a single GEMM from a
// batch of them, which is the one execution choice left -- parallelize
// the batch loop or each GEMM's blocks. ClassifyContraction derives the
// class from the extents alone; ClassifyEinsum (tensor/einsum.hpp) applies
// it once per (spec, operand shapes) site and caches the result, and the
// autotuner keys its buckets by that cached class.
#pragma once

#include <cstdint>
#include <string_view>

namespace xflow {

/// Flattened GEMM dimensions of a contraction (used by the device model
/// and the classification).
struct GemmExtents {
  std::int64_t m = 1, n = 1, k = 1, batch = 1;
};

/// The class of a contraction: one GEMM, or a batch of strided GEMMs.
enum class EinsumClass {
  kUnclassified,  // no class given (ShapeBucket default, EinsumInto)
  kGemm,          // a single GEMM (batch == 1)
  kBatchedGemm,   // batch > 1 strided GEMMs
};

/// Class of the given extents. Total classification: never returns
/// kUnclassified.
constexpr EinsumClass ClassifyContraction(const GemmExtents& e) {
  return e.batch > 1 ? EinsumClass::kBatchedGemm : EinsumClass::kGemm;
}

/// Stable lowercase names ("gemm", "batched-gemm", ...) for diagnostics.
std::string_view ToString(EinsumClass cls);

}  // namespace xflow
