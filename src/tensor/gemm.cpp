#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/threadpool.hpp"

namespace xflow {

namespace {
// Cache blocking. The packed A block (kMB x kKB floats) and B block
// (kKB x kNB) together stay within L2; the accumulator tile row fits in L1.
constexpr std::int64_t kMB = 64;
constexpr std::int64_t kNB = 96;
constexpr std::int64_t kKB = 256;

// Register blocking for the micro-kernel: a kMR x kNR accumulator patch
// lives in registers for the whole K-block loop, so the inner loop does
// one B-row load and kMR broadcast-FMAs per K step instead of a
// load+store of the accumulator per multiply like the old scalar kernel.
// 8 x 16 gives eight independent accumulator vectors -- enough to cover
// FMA latency on two issue ports.
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = 16;

static_assert(kMB % kMR == 0 && kNB % kNR == 0,
              "macro tiles must divide evenly into register tiles");

// Per-thread pack/accumulate scratch: each macro-tile task packs its own
// fp32 A/B blocks, so threads never share mutable buffers.
struct Scratch {
  std::vector<float> a_pack, b_pack, acc;
};

Scratch& TlsScratch() {
  thread_local Scratch s;
  if (s.acc.empty()) {
    s.a_pack.resize(static_cast<std::size_t>(kMB * kKB));
    s.b_pack.resize(static_cast<std::size_t>(kKB * kNB));
    s.acc.resize(static_cast<std::size_t>(kMB * kNB));
  }
  return s;
}

// Offset tables for row-major-ish layouts are affine (constant stride);
// detecting that once per call lets the pack and writeback loops use
// direct strided addressing, which vectorizes, instead of a per-element
// table load, which does not. Non-affine tables keep the general path.
struct Affine {
  bool yes = false;
  std::int64_t stride = 0;
};

Affine DetectAffine(std::span<const std::int64_t> t) {
  if (t.size() < 2) return {true, 0};
  const std::int64_t s = t[1] - t[0];
  for (std::size_t i = 2; i < t.size(); ++i) {
    if (t[i] - t[i - 1] != s) return {};
  }
  return {true, s};
}

/// acc[kMR][kNR] += A-strip[kMR][kb] * B-panel[kb][kNR]. The K loop is
/// the only float-accumulation loop, executed in ascending k order, so
/// the per-element operation sequence is fixed regardless of threading.
#if defined(__GNUC__) || defined(__clang__)
// A kNR-wide float vector (one ZMM with AVX-512, lowered to narrower ops
// or scalars on lesser targets). aligned(4): loads need only float
// alignment; may_alias: we view plain float buffers through it.
using Vec
    __attribute__((vector_size(kNR * sizeof(float)), aligned(4), may_alias))
    = float;

// noinline: inlined into the tile loop the kernel competes with the
// packing/driver state for integer registers and GCC ends up reloading
// the eight A-row offsets every K iteration, halving throughput.
__attribute__((noinline)) void MicroTile(const float* a, std::int64_t lda,
                                         const float* b, std::int64_t ldb,
                                         std::int64_t kb, float* acc,
                                         std::int64_t ldc) {
  // Eight accumulator vectors stay in registers for the whole K loop;
  // writing this with explicit Vec locals (rather than float arrays)
  // keeps GCC from spilling them to the stack every iteration.
  Vec c0 = *reinterpret_cast<const Vec*>(acc);
  Vec c1 = *reinterpret_cast<const Vec*>(acc + ldc);
  Vec c2 = *reinterpret_cast<const Vec*>(acc + 2 * ldc);
  Vec c3 = *reinterpret_cast<const Vec*>(acc + 3 * ldc);
  Vec c4 = *reinterpret_cast<const Vec*>(acc + 4 * ldc);
  Vec c5 = *reinterpret_cast<const Vec*>(acc + 5 * ldc);
  Vec c6 = *reinterpret_cast<const Vec*>(acc + 6 * ldc);
  Vec c7 = *reinterpret_cast<const Vec*>(acc + 7 * ldc);
  for (std::int64_t k = 0; k < kb; ++k) {
    const Vec bv = *reinterpret_cast<const Vec*>(b + k * ldb);
    c0 += bv * a[k];
    c1 += bv * a[lda + k];
    c2 += bv * a[2 * lda + k];
    c3 += bv * a[3 * lda + k];
    c4 += bv * a[4 * lda + k];
    c5 += bv * a[5 * lda + k];
    c6 += bv * a[6 * lda + k];
    c7 += bv * a[7 * lda + k];
  }
  *reinterpret_cast<Vec*>(acc) = c0;
  *reinterpret_cast<Vec*>(acc + ldc) = c1;
  *reinterpret_cast<Vec*>(acc + 2 * ldc) = c2;
  *reinterpret_cast<Vec*>(acc + 3 * ldc) = c3;
  *reinterpret_cast<Vec*>(acc + 4 * ldc) = c4;
  *reinterpret_cast<Vec*>(acc + 5 * ldc) = c5;
  *reinterpret_cast<Vec*>(acc + 6 * ldc) = c6;
  *reinterpret_cast<Vec*>(acc + 7 * ldc) = c7;
}
#else
inline void MicroTile(const float* a, std::int64_t lda, const float* b,
                      std::int64_t ldb, std::int64_t kb, float* acc,
                      std::int64_t ldc) {
  float c[kMR][kNR];
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t n = 0; n < kNR; ++n) c[r][n] = acc[r * ldc + n];
  }
  for (std::int64_t k = 0; k < kb; ++k) {
    const float* bk = b + k * ldb;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = a[r * lda + k];
      for (std::int64_t n = 0; n < kNR; ++n) c[r][n] += av * bk[n];
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t n = 0; n < kNR; ++n) acc[r * ldc + n] = c[r][n];
  }
}
#endif

/// Ragged-edge fallback for partial register tiles (mr < kMR or nr < kNR).
/// Same ascending-k accumulation order per output element as MicroTile.
inline void MicroEdge(const float* a, std::int64_t lda, std::int64_t mr,
                      const float* b, std::int64_t ldb, std::int64_t nr,
                      std::int64_t kb, float* acc, std::int64_t ldc) {
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* ar = a + r * lda;
    float* accrow = acc + r * ldc;
    for (std::int64_t k = 0; k < kb; ++k) {
      const float av = ar[k];
      const float* bk = b + k * ldb;
      for (std::int64_t n = 0; n < nr; ++n) accrow[n] += av * bk[n];
    }
  }
}

/// Computes one kMB x kNB output macro-tile at (m0, n0), start to finish:
/// pack, accumulate over all K blocks, write back. Tiles are disjoint in C
/// and use thread-local scratch, so any assignment of tiles to threads
/// yields bitwise-identical results.
template <typename TIn, typename TOut>
void GemmTile(const TIn* a, const TIn* b, TOut* c,
              std::span<const std::int64_t> a_m,
              std::span<const std::int64_t> a_k,
              std::span<const std::int64_t> b_k,
              std::span<const std::int64_t> b_n,
              std::span<const std::int64_t> c_m,
              std::span<const std::int64_t> c_n, float alpha, float beta,
              std::int64_t m0, std::int64_t n0, Affine ak_aff, Affine bn_aff,
              Affine cn_aff) {
  const auto m_total = static_cast<std::int64_t>(a_m.size());
  const auto n_total = static_cast<std::int64_t>(b_n.size());
  const auto k_total = static_cast<std::int64_t>(a_k.size());
  const std::int64_t mb = std::min(kMB, m_total - m0);
  const std::int64_t nb = std::min(kNB, n_total - n0);

  Scratch& s = TlsScratch();
  float* a_pack = s.a_pack.data();
  float* b_pack = s.b_pack.data();
  float* acc = s.acc.data();
  std::fill(acc, acc + mb * nb, 0.0f);

  for (std::int64_t k0 = 0; k0 < k_total; k0 += kKB) {
    const std::int64_t kb = std::min(kKB, k_total - k0);
    // Pack A block as [mb][kb] and B block as [kb][nb], converting to
    // fp32 once so the inner loop is pure fp32 FMA.
    for (std::int64_t m = 0; m < mb; ++m) {
      const std::int64_t am = a_m[static_cast<std::size_t>(m0 + m)];
      float* dst = &a_pack[static_cast<std::size_t>(m * kb)];
      if (ak_aff.yes) {
        const TIn* src = a + am + a_k[static_cast<std::size_t>(k0)];
        const std::int64_t s = ak_aff.stride;
        for (std::int64_t k = 0; k < kb; ++k) dst[k] = float(src[k * s]);
      } else {
        for (std::int64_t k = 0; k < kb; ++k) {
          dst[k] = float(a[am + a_k[static_cast<std::size_t>(k0 + k)]]);
        }
      }
    }
    for (std::int64_t k = 0; k < kb; ++k) {
      const std::int64_t bk = b_k[static_cast<std::size_t>(k0 + k)];
      float* dst = &b_pack[static_cast<std::size_t>(k * nb)];
      if (bn_aff.yes) {
        const TIn* src = b + bk + b_n[static_cast<std::size_t>(n0)];
        const std::int64_t s = bn_aff.stride;
        for (std::int64_t n = 0; n < nb; ++n) dst[n] = float(src[n * s]);
      } else {
        for (std::int64_t n = 0; n < nb; ++n) {
          dst[n] = float(b[bk + b_n[static_cast<std::size_t>(n0 + n)]]);
        }
      }
    }
    // Register-blocked accumulation over the packed blocks.
    std::int64_t m = 0;
    for (; m + kMR <= mb; m += kMR) {
      std::int64_t n = 0;
      for (; n + kNR <= nb; n += kNR) {
        MicroTile(&a_pack[m * kb], kb, &b_pack[n], nb, kb, &acc[m * nb + n],
                  nb);
      }
      if (n < nb) {
        MicroEdge(&a_pack[m * kb], kb, kMR, &b_pack[n], nb, nb - n, kb,
                  &acc[m * nb + n], nb);
      }
    }
    if (m < mb) {
      MicroEdge(&a_pack[m * kb], kb, mb - m, b_pack, nb, nb, kb, &acc[m * nb],
                nb);
    }
  }

  for (std::int64_t m = 0; m < mb; ++m) {
    const std::int64_t cm = c_m[static_cast<std::size_t>(m0 + m)];
    const float* accrow = &acc[static_cast<std::size_t>(m * nb)];
    if (cn_aff.yes && beta == 0.0f) {
      TOut* dst = c + cm + c_n[static_cast<std::size_t>(n0)];
      const std::int64_t s = cn_aff.stride;
      for (std::int64_t n = 0; n < nb; ++n) {
        dst[n * s] = TOut(alpha * accrow[n] + 0.0f);
      }
    } else {
      for (std::int64_t n = 0; n < nb; ++n) {
        TOut& dst = c[cm + c_n[static_cast<std::size_t>(n0 + n)]];
        const float prior = beta == 0.0f ? 0.0f : beta * float(dst);
        dst = TOut(alpha * accrow[n] + prior);
      }
    }
  }
}

}  // namespace

std::int64_t GemmTileCount(std::int64_t m, std::int64_t n) {
  return ((m + kMB - 1) / kMB) * ((n + kNB - 1) / kNB);
}

template <typename TIn, typename TOut>
void GemmOffsets(const TIn* a, const TIn* b, TOut* c,
                 std::span<const std::int64_t> a_m,
                 std::span<const std::int64_t> a_k,
                 std::span<const std::int64_t> b_k,
                 std::span<const std::int64_t> b_n,
                 std::span<const std::int64_t> c_m,
                 std::span<const std::int64_t> c_n, float alpha, float beta) {
  const auto m_total = static_cast<std::int64_t>(a_m.size());
  const auto n_total = static_cast<std::int64_t>(b_n.size());
  if (m_total == 0 || n_total == 0) return;

  const Affine ak_aff = DetectAffine(a_k);
  const Affine bn_aff = DetectAffine(b_n);
  const Affine cn_aff = DetectAffine(c_n);
  const std::int64_t m_tiles = (m_total + kMB - 1) / kMB;
  const std::int64_t n_tiles = (n_total + kNB - 1) / kNB;
  ParallelFor(m_tiles * n_tiles, 1, [&](std::int64_t t) {
    const std::int64_t m0 = (t / n_tiles) * kMB;
    const std::int64_t n0 = (t % n_tiles) * kNB;
    GemmTile(a, b, c, a_m, a_k, b_k, b_n, c_m, c_n, alpha, beta, m0, n0,
             ak_aff, bn_aff, cn_aff);
  });
}

namespace {

// Shared writeback for the specialized kernels -- the exact float-op
// sequence of GemmTile's general writeback branch, so a specialized
// class is bitwise identical to the generic pipeline for any beta.
template <typename TOut>
inline void WriteBack(TOut& dst, float acc, float alpha, float beta) {
  const float prior = beta == 0.0f ? 0.0f : beta * float(dst);
  dst = TOut(alpha * acc + prior);
}

}  // namespace

template <typename TIn, typename TOut>
void GemvOffsets(const TIn* a, const TIn* x, TOut* y,
                 std::span<const std::int64_t> a_m,
                 std::span<const std::int64_t> a_k,
                 std::span<const std::int64_t> x_k,
                 std::span<const std::int64_t> y_m, float alpha, float beta,
                 std::int64_t row_grain) {
  const auto rows = static_cast<std::int64_t>(a_m.size());
  const auto k_total = static_cast<std::int64_t>(a_k.size());
  if (rows == 0) return;
  // Convert the shared vector operand to fp32 once for the whole call
  // (the generic path gets this from packing); every row re-reading it
  // through the offset table would pay a table load plus a conversion
  // per multiply. Same float values, so results are bit-identical.
  std::vector<float> xf(static_cast<std::size_t>(k_total));
  for (std::int64_t k = 0; k < k_total; ++k) {
    xf[static_cast<std::size_t>(k)] =
        float(x[x_k[static_cast<std::size_t>(k)]]);
  }
  ParallelFor(rows, row_grain, [&](std::int64_t r) {
    const TIn* ar = a + a_m[static_cast<std::size_t>(r)];
    // One serial ascending-k chain per output element, accumulating
    // fp32 products from 0.0f -- the same sequence the packed
    // micro-kernels execute for this element.
    float acc = 0.0f;
    for (std::int64_t k = 0; k < k_total; ++k) {
      acc += float(ar[a_k[static_cast<std::size_t>(k)]]) *
             xf[static_cast<std::size_t>(k)];
    }
    WriteBack(y[y_m[static_cast<std::size_t>(r)]], acc, alpha, beta);
  });
}

template <typename TIn, typename TOut>
void GerOffsets(const TIn* a, const TIn* b, TOut* c,
                std::span<const std::int64_t> a_m,
                std::span<const std::int64_t> b_n,
                std::span<const std::int64_t> c_m,
                std::span<const std::int64_t> c_n, float alpha, float beta,
                std::int64_t row_grain) {
  const auto rows = static_cast<std::int64_t>(a_m.size());
  const auto cols = static_cast<std::int64_t>(b_n.size());
  if (rows == 0 || cols == 0) return;
  // Convert the column vector to fp32 once for the whole call instead of
  // once per output element (rows x cols conversions otherwise -- the
  // entire reason the packed pipeline was beating this kernel). Same
  // float values, so results are bit-identical.
  std::vector<float> bf(static_cast<std::size_t>(cols));
  for (std::int64_t n = 0; n < cols; ++n) {
    bf[static_cast<std::size_t>(n)] =
        float(b[b_n[static_cast<std::size_t>(n)]]);
  }
  const Affine c_aff = DetectAffine(c_n);
  const bool contiguous = c_aff.yes && c_aff.stride == 1 && cols > 1;
  ParallelFor(rows, row_grain, [&](std::int64_t r) {
    const float av = float(a[a_m[static_cast<std::size_t>(r)]]);
    TOut* crow = c + c_m[static_cast<std::size_t>(r)];
    if (contiguous && beta == 0.0f) {
      // Unit-stride output row and no prior term: a pure elementwise
      // multiply + branch-free convert, which vectorizes. The general
      // loop below cannot -- the offset-table store is a scatter.
      TOut* cp = crow + c_n[0];
      for (std::int64_t n = 0; n < cols; ++n) {
        float acc = 0.0f;
        acc += av * bf[static_cast<std::size_t>(n)];
        cp[n] = TOut(alpha * acc);
      }
    } else {
      for (std::int64_t n = 0; n < cols; ++n) {
        float acc = 0.0f;
        acc += av * bf[static_cast<std::size_t>(n)];
        WriteBack(crow[c_n[static_cast<std::size_t>(n)]], acc, alpha, beta);
      }
    }
  });
}

template <typename TIn, typename TOut>
void DotOffsets(const TIn* a, const TIn* b, TOut* c,
                std::span<const std::int64_t> a_k,
                std::span<const std::int64_t> b_k, float alpha, float beta) {
  const auto k_total = static_cast<std::int64_t>(a_k.size());
  float acc = 0.0f;
  for (std::int64_t k = 0; k < k_total; ++k) {
    acc += float(a[a_k[static_cast<std::size_t>(k)]]) *
           float(b[b_k[static_cast<std::size_t>(k)]]);
  }
  WriteBack(c[0], acc, alpha, beta);
}

template <typename TIn, typename TOut>
void ScaledCopyOffsets(const TIn* vec, float scalar, TOut* out,
                       std::span<const std::int64_t> vec_t,
                       std::span<const std::int64_t> out_t, float alpha,
                       float beta, std::int64_t row_grain) {
  const auto rows = static_cast<std::int64_t>(vec_t.size());
  if (rows == 0) return;
  ParallelFor(rows, row_grain, [&](std::int64_t r) {
    float acc = 0.0f;
    acc += float(vec[vec_t[static_cast<std::size_t>(r)]]) * scalar;
    WriteBack(out[out_t[static_cast<std::size_t>(r)]], acc, alpha, beta);
  });
}

#define XFLOW_INSTANTIATE_LOWERED(TIn, TOut)                                  \
  template void GemvOffsets<TIn, TOut>(                                       \
      const TIn*, const TIn*, TOut*, std::span<const std::int64_t>,           \
      std::span<const std::int64_t>, std::span<const std::int64_t>,           \
      std::span<const std::int64_t>, float, float, std::int64_t);             \
  template void GerOffsets<TIn, TOut>(                                        \
      const TIn*, const TIn*, TOut*, std::span<const std::int64_t>,           \
      std::span<const std::int64_t>, std::span<const std::int64_t>,           \
      std::span<const std::int64_t>, float, float, std::int64_t);             \
  template void DotOffsets<TIn, TOut>(const TIn*, const TIn*, TOut*,          \
                                      std::span<const std::int64_t>,          \
                                      std::span<const std::int64_t>, float,   \
                                      float);                                 \
  template void ScaledCopyOffsets<TIn, TOut>(                                 \
      const TIn*, float, TOut*, std::span<const std::int64_t>,                \
      std::span<const std::int64_t>, float, float, std::int64_t);

XFLOW_INSTANTIATE_LOWERED(Half, Half)
XFLOW_INSTANTIATE_LOWERED(float, float)
XFLOW_INSTANTIATE_LOWERED(Half, float)
#undef XFLOW_INSTANTIATE_LOWERED

template void GemmOffsets<Half, Half>(
    const Half*, const Half*, Half*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);
template void GemmOffsets<float, float>(
    const float*, const float*, float*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);
template void GemmOffsets<Half, float>(
    const Half*, const Half*, float*, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, std::span<const std::int64_t>,
    std::span<const std::int64_t>, float, float);

}  // namespace xflow
