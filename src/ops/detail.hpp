// Shared kernel-execution engine for the memory-bound operators.
//
// Every kernel in src/ops/ runs through the drivers in this header instead
// of hand-rolled loop nests. The iteration space is always a padded 4-deep
// loop (LoopDims); the outer three dims form independent *rows* and the
// fourth (innermost) dim is walked entirely by the thread that owns the
// row. Rows are partitioned over the persistent thread pool, which makes
// the whole ops layer scale with cores while keeping results bitwise
// identical at every thread count.
//
// A kernel declares its operands as view specs and provides one generic
// row body:
//
//   ForEachRow(ld, [&](a, b, c, xr, yr) { ... }, In{xv}, Out{yv});
//
//  * In / Out operands are handed to the body as unit-stride Row<true>
//    accessors, always. When every In/Out innermost stride is 1 the
//    accessors point straight at tensor memory (the contiguous fast path:
//    a plain pointer walk the vectorizer handles, helped along by the
//    XFLOW_SIMD row helpers below). When any stride is not 1, the engine
//    switches to the *transpose-on-the-fly* path: rows are processed in
//    tiles of kTileRows, each strided operand's tile is gathered into
//    per-thread contiguous scratch (ThreadScratch) with a cache-blocked
//    loop order, the same body runs on the scratch rows, and staged
//    outputs are scattered back. Staging is a pure copy, so both paths
//    execute the identical body instantiation -- strided layouts produce
//    bitwise the same values as contiguous ones, and fused kernels match
//    their unfused pipelines on every layout.
//  * Pass operands keep a strided Row<false> accessor and never gate or
//    join the staging: use it for operands that may broadcast along the
//    innermost dim (stride 0, e.g. a bias whose dim is not the output's
//    innermost). Row-scalar views (mean / rstd) read at d = 0 are
//    addressed via Off directly inside the body.
//
// Requirements on the body: it may write an Out row only (no
// read-modify-write of prior memory contents, though reading back values
// it wrote earlier in the same call is fine), and it must write every
// element of each Out row -- staged tiles are scattered in full.
//
// Cross-row reductions (bias gradients, dgamma / dbeta) use
// ForEachRowReduce: rows are split into a *fixed* number of chunks derived
// only from the row count (never the thread count); each chunk accumulates
// its rows in order into a private fp32 partial, and partials are combined
// in chunk order. The floating-point summation tree is therefore a pure
// function of the loop extents, so results are bitwise stable across
// thread counts *and* fused kernels match their unfused pipelines exactly
// (both iterate the same extents).
//
// Horizontal reductions *within* a row (softmax max, layernorm moments,
// the dX dot products) go through the Row* helpers below: fixed-width
// lane accumulators whose summation tree depends only on the extent, so
// the vectorized tree is identical everywhere it must match -- fused and
// unfused, staged and contiguous, any buffer alignment.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/function_ref.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/threadpool.hpp"
#include "ops/iter.hpp"

namespace xflow::ops::detail {

/// Loop dimensions of a kernel: up to four named dims plus '\0'-named
/// padding of extent 1. Padding slots bind to stride 0 in every View and
/// contribute index 0, so where they sit never changes the elements
/// visited -- only which slots form rows.
///
/// Invariant: padding always occupies the *outer* slots. Both drivers
/// below right-align the real dims against slot 3, so rows pack densest at
/// the inner end and row decoding / staging never straddles padding.
struct LoopDims {
  std::array<char, 4> names{};
  std::array<std::int64_t, 4> extents{1, 1, 1, 1};
};

/// Loop over the output's dims in memory order, right-aligned so the
/// output's innermost (contiguous) dim always lands in the fourth slot.
/// Rows then have the full memory-order width of the tensor, which is what
/// the fast path wants.
inline LoopDims LoopOverOutput(const Shape& out_shape) {
  require(out_shape.rank() <= 4, "kernels support rank <= 4");
  LoopDims ld;
  const auto& dims = out_shape.dims();
  const std::size_t pad = 4 - dims.size();
  for (std::size_t d = 0; d < dims.size(); ++d) {
    ld.names[pad + d] = dims[d].name;
    ld.extents[pad + d] = dims[d].extent;
  }
  return ld;
}

/// Loop with `inner_dim` pinned to the fourth slot and the remaining dims
/// of `shape` in memory order, right-aligned against it (same padding
/// invariant as LoopOverOutput). Reduction-then-map kernels (softmax,
/// layernorm, the fused LN family) use this so the reduced dim is walked
/// by one thread while rows parallelize.
inline LoopDims LoopWithInnermost(const Shape& shape, char inner_dim) {
  require(shape.rank() <= 4, "kernels support rank <= 4");
  require(shape.has(inner_dim), "tensor lacks the innermost loop dimension");
  LoopDims ld;
  std::size_t slot = 4 - shape.rank();
  for (const auto& d : shape.dims()) {
    if (d.name == inner_dim) continue;
    ld.names[slot] = d.name;
    ld.extents[slot] = d.extent;
    ++slot;
  }
  ld.names[3] = inner_dim;
  ld.extents[3] = shape.extent(inner_dim);
  return ld;
}

template <typename T>
inline std::int64_t Off(const View<T, 4>& v, std::int64_t a, std::int64_t b,
                        std::int64_t c, std::int64_t d) {
  return a * v.stride[0] + b * v.stride[1] + c * v.stride[2] + d * v.stride[3];
}

inline std::int64_t Dot(const std::array<std::int64_t, 4>& s, std::int64_t a,
                        std::int64_t b, std::int64_t c, std::int64_t d) {
  return a * s[0] + b * s[1] + c * s[2] + d * s[3];
}

/// Strided row accessor: base pointer for a fixed (a, b, c) plus the
/// innermost stride. The kUnit specialization is the contiguous fast path
/// -- a literal p[d] the compiler can vectorize.
template <bool kUnit, typename T>
struct Row {
  T* p = nullptr;
  std::int64_t s = 0;
  T& operator[](std::int64_t d) const {
    if constexpr (kUnit) {
      return p[d];
    } else {
      return p[d * s];
    }
  }
};

template <bool kUnit, typename T>
inline Row<kUnit, T> RowOf(const View<T, 4>& v, std::int64_t a,
                           std::int64_t b, std::int64_t c) {
  return {v.ptr + a * v.stride[0] + b * v.stride[1] + c * v.stride[2],
          v.stride[3]};
}

// ------------------------------------------------------- row reduction
// fp32 horizontal reductions over one row. All kernels -- fused and
// unfused -- compute these quantities through the helpers below, never
// with ad-hoc loops. Each helper accumulates into a fixed kRowLanes-wide
// lane array (element k always lands in lane k % kRowLanes) and combines
// the lanes in index order at the end. The summation tree is therefore a
// pure function of the extent n: independent of pointer alignment (no
// vectorizer peeling can reorder it), of whether the row is staged scratch
// or tensor memory, and of whether the build vectorizes at all -- while
// still giving the compiler an embarrassingly-vectorizable inner loop.
// The helpers are compiled out of line ([[gnu::noinline]]), so every
// kernel runs the same instructions: where the compiler contracts
// `a * b + c` into an FMA, separately inlined copies of one loop may
// contract differently and break the bitwise matches.

constexpr int kRowLanes = 8;  // one AVX2 fp32 vector

/// max over k of scale * r[k].
template <typename R>
[[gnu::noinline]] inline float RowMax(const R& r, std::int64_t n,
                                      float scale) {
  alignas(32) float lane[kRowLanes];
  for (int j = 0; j < kRowLanes; ++j) {
    lane[j] = -std::numeric_limits<float>::infinity();
  }
  std::int64_t k = 0;
  for (; k + kRowLanes <= n; k += kRowLanes) {
    XFLOW_SIMD
    for (int j = 0; j < kRowLanes; ++j) {
      lane[j] = std::max(lane[j], scale * float(r[k + j]));
    }
  }
  for (int j = 0; k < n; ++k, ++j) {
    lane[j] = std::max(lane[j], scale * float(r[k]));
  }
  float m = lane[0];
  for (int j = 1; j < kRowLanes; ++j) m = std::max(m, lane[j]);
  return m;
}

/// sum and sum of squares of r[k] (layernorm moments).
template <typename R>
[[gnu::noinline]] inline void RowMoments(const R& r, std::int64_t n,
                                         float* sum, float* sum_sq) {
  alignas(32) float ls[kRowLanes] = {};
  alignas(32) float lss[kRowLanes] = {};
  std::int64_t k = 0;
  for (; k + kRowLanes <= n; k += kRowLanes) {
    XFLOW_SIMD
    for (int j = 0; j < kRowLanes; ++j) {
      const float v = float(r[k + j]);
      ls[j] += v;
      lss[j] += v * v;
    }
  }
  for (int j = 0; k < n; ++k, ++j) {
    const float v = float(r[k]);
    ls[j] += v;
    lss[j] += v * v;
  }
  float s = 0, ss = 0;
  for (int j = 0; j < kRowLanes; ++j) {
    s += ls[j];
    ss += lss[j];
  }
  *sum = s;
  *sum_sq = ss;
}

/// Layernorm row statistics from RowMoments' sums: the mean, and
/// 1 / sqrt(var + eps) with var = E[x^2] - mean^2 clamped at 0. Out of
/// line like the reductions: `sum_sq * inv_n - mean * mean` can fuse
/// either product into an FMA.
[[gnu::noinline]] inline void RowNormStats(float sum, float sum_sq,
                                           float inv_n, float eps, float* mu,
                                           float* rs) {
  const float mean = sum * inv_n;
  const float var = std::max(sum_sq * inv_n - mean * mean, 0.0f);
  *mu = mean;
  *rs = 1.0f / std::sqrt(var + eps);
}

/// sum over k of a[k] * b[k] (softmax dX inner product).
template <typename RA, typename RB>
[[gnu::noinline]] inline float RowDot(const RA& a, const RB& b,
                                      std::int64_t n) {
  alignas(32) float lane[kRowLanes] = {};
  std::int64_t k = 0;
  for (; k + kRowLanes <= n; k += kRowLanes) {
    XFLOW_SIMD
    for (int j = 0; j < kRowLanes; ++j) {
      lane[j] += float(a[k + j]) * float(b[k + j]);
    }
  }
  for (int j = 0; k < n; ++k, ++j) lane[j] += float(a[k]) * float(b[k]);
  float s = 0;
  for (int j = 0; j < kRowLanes; ++j) s += lane[j];
  return s;
}

/// sum_g = sum dy*g and sum_gx = sum dy*g*(x-mu)*rs -- the two layernorm
/// dX reductions. Shared by LayerNormBackwardDX and the fused
/// LayerNormDropoutBackward so their dX streams stay bitwise equal.
template <typename RD, typename RG, typename RX>
[[gnu::noinline]] inline void RowNormDots(const RD& dyr, const RG& gr,
                                          const RX& xr, float mu, float rs,
                                          std::int64_t n, float* sum_g,
                                          float* sum_gx) {
  alignas(32) float lg[kRowLanes] = {};
  alignas(32) float lgx[kRowLanes] = {};
  std::int64_t k = 0;
  for (; k + kRowLanes <= n; k += kRowLanes) {
    XFLOW_SIMD
    for (int j = 0; j < kRowLanes; ++j) {
      const float g = float(dyr[k + j]) * float(gr[k + j]);
      const float xhat = (float(xr[k + j]) - mu) * rs;
      lg[j] += g;
      lgx[j] += g * xhat;
    }
  }
  for (int j = 0; k < n; ++k, ++j) {
    const float g = float(dyr[k]) * float(gr[k]);
    const float xhat = (float(xr[k]) - mu) * rs;
    lg[j] += g;
    lgx[j] += g * xhat;
  }
  float sg = 0, sgx = 0;
  for (int j = 0; j < kRowLanes; ++j) {
    sg += lg[j];
    sgx += lgx[j];
  }
  *sum_g = sg;
  *sum_gx = sgx;
}

/// sum over k of (da[k] * m[k] * keep_scale) * s[k] -- the scaled-softmax
/// dX inner product through the dropout mask.
template <typename RA, typename RM, typename RS>
[[gnu::noinline]] inline float RowDropoutDot(const RA& dar, const RM& mr,
                                             const RS& sr, float keep_scale,
                                             std::int64_t n) {
  alignas(32) float lane[kRowLanes] = {};
  std::int64_t k = 0;
  for (; k + kRowLanes <= n; k += kRowLanes) {
    XFLOW_SIMD
    for (int j = 0; j < kRowLanes; ++j) {
      const float ds = float(dar[k + j]) * float(mr[k + j]) * keep_scale;
      lane[j] += ds * float(sr[k + j]);
    }
  }
  for (int j = 0; k < n; ++k, ++j) {
    const float ds = float(dar[k]) * float(mr[k]) * keep_scale;
    lane[j] += ds * float(sr[k]);
  }
  float acc = 0;
  for (int j = 0; j < kRowLanes; ++j) acc += lane[j];
  return acc;
}

// -------------------------------------------------------- dropout masks
// The mask kernels draw a row's keep flags a chunk at a time through
// DropoutMask::KeepFlags (block-batched Philox, see common/rng.hpp) and
// then run their element loop over the flags. The flags live on the row
// body's stack, never in ThreadScratch: the staged path holds its scratch
// tile while the body runs.

constexpr std::int64_t kMaskChunk = 512;

/// keep ? v : +0.0f, as a bit mask instead of a conditional: the compiler
/// may not hoist a floating-point op out of a conditional arm, so
/// `keep ? v * scale : 0.0f` would keep the loop from vectorizing.
inline float KeepOrZero(bool keep, float v) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

/// Calls fn(d0, len, keep) for consecutive chunks [d0, d0 + len) of a row
/// of n elements; keep[t] is the mask's flag for canonical index
/// base + (d0 + t) * stride.
template <typename Fn>
inline void ForEachMaskChunk(const DropoutMask& mask, std::int64_t base,
                             std::int64_t stride, std::int64_t n, Fn&& fn) {
  std::array<std::uint8_t, kMaskChunk> keep;
  for (std::int64_t d0 = 0; d0 < n; d0 += kMaskChunk) {
    const std::int64_t len = std::min(kMaskChunk, n - d0);
    mask.KeepFlags(static_cast<std::uint64_t>(base + d0 * stride),
                   static_cast<std::uint64_t>(stride),
                   std::span(keep.data(), static_cast<std::size_t>(len)));
    fn(d0, len, keep.data());
  }
}

// ------------------------------------------------------- parallel rows

inline std::int64_t RowsOf(const std::array<std::int64_t, 4>& e) {
  return e[0] * e[1] * e[2];
}

/// Target work-item size handed to the pool: chunks of rows totalling at
/// least this many innermost elements, so dispatch overhead stays
/// negligible for skinny rows. Grain only changes which thread runs a row,
/// never the arithmetic, so it is determinism-neutral.
constexpr std::int64_t kRowGrainElems = 2048;

/// Runs fn(a, b, c) for every row, partitioned over the global pool. The
/// body owns the entire innermost loop of its row. Non-owning on purpose
/// (FunctionRef): one instantiation serves every kernel and the loop
/// launch carries no std::function allocation or double indirection.
inline void ParallelRows(
    const std::array<std::int64_t, 4>& e,
    FunctionRef<void(std::int64_t, std::int64_t, std::int64_t)> fn) {
  const std::int64_t rows = RowsOf(e);
  if (rows <= 0) return;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kRowGrainElems / std::max<std::int64_t>(1, e[3]));
  const std::int64_t bc = e[1] * e[2];
  xflow::ParallelFor(rows, grain, [&](std::int64_t r) {
    fn(r / bc, (r % bc) / e[2], r % e[2]);
  });
}

// ------------------------------------------------ transpose-on-the-fly
// Staging tiles: kTileRows rows of a strided operand are copied through
// per-thread contiguous scratch so the row bodies always walk unit-stride
// memory. 32 rows make a transposed gather consume each fetched cache
// line in full (32 x 2 B fp16 = one 64 B line) and give page-strided
// layouts kTileRows uses per TLB entry instead of one; the 64-column
// blocks bound the strided footprint per sweep. Tiles of a few operands
// land in L2 (e.g. 32 x 2048 fp16 = 128 KB per operand at the bench's
// extreme row length; typical transformer rows are far smaller).

constexpr std::int64_t kTileRows = 32;
constexpr std::int64_t kTileCols = 64;

/// Scratch leading dimension for rows of n elements: one cache line of
/// padding between consecutive scratch rows, so power-of-two row lengths
/// (the common transformer extents) do not alias all tile rows onto the
/// same L1 set during the transposed gather.
template <typename T>
inline std::int64_t ScratchRowElems(std::int64_t n) {
  return n + static_cast<std::int64_t>(64 / sizeof(T));
}

/// Copies nrows strided source rows of length n (innermost stride
/// `stride`, per-row base offsets `base`) into contiguous buf rows
/// (buf[r * ldb + k]). Loop order follows the smaller memory distance:
/// when the tile's rows sit closer together than its columns (the
/// transposed-tensor case, uniform base delta < stride), columns walk the
/// outer loop so each cache line / TLB page fetched for a column serves
/// every row of the tile before the walk moves on -- kTileRows is sized so
/// such a fetch is consumed in full; otherwise rows walk the outer loop
/// over kTileCols-column blocks.
template <typename T>
inline void GatherTile(const T* p, const std::int64_t* base,
                       std::int64_t nrows, std::int64_t n, std::int64_t stride,
                       T* buf, std::int64_t ldb) {
  const std::int64_t delta = nrows > 1 ? base[1] - base[0] : 0;
  bool uniform = nrows > 1;
  for (std::int64_t r = 2; r < nrows; ++r) {
    uniform = uniform && base[r] - base[r - 1] == delta;
  }
  if (uniform && delta >= 0 && delta < stride) {
    const T* p0 = p + base[0];
    for (std::int64_t k = 0; k < n; ++k) {
      const T* src = p0 + k * stride;
      T* dst = buf + k;
      for (std::int64_t r = 0; r < nrows; ++r) dst[r * ldb] = src[r * delta];
    }
  } else {
    for (std::int64_t k0 = 0; k0 < n; k0 += kTileCols) {
      const std::int64_t k1 = std::min(k0 + kTileCols, n);
      for (std::int64_t r = 0; r < nrows; ++r) {
        const T* src = p + base[r];
        T* dst = buf + r * ldb;
        XFLOW_SIMD
        for (std::int64_t k = k0; k < k1; ++k) dst[k] = src[k * stride];
      }
    }
  }
}

/// Inverse of GatherTile: writes contiguous buf rows back to the strided
/// destination, with the same orientation choice.
template <typename T>
inline void ScatterTile(const T* buf, const std::int64_t* base,
                        std::int64_t nrows, std::int64_t n,
                        std::int64_t stride, T* p, std::int64_t ldb) {
  const std::int64_t delta = nrows > 1 ? base[1] - base[0] : 0;
  bool uniform = nrows > 1;
  for (std::int64_t r = 2; r < nrows; ++r) {
    uniform = uniform && base[r] - base[r - 1] == delta;
  }
  if (uniform && delta >= 0 && delta < stride) {
    T* p0 = p + base[0];
    for (std::int64_t k = 0; k < n; ++k) {
      const T* src = buf + k;
      T* dst = p0 + k * stride;
      for (std::int64_t r = 0; r < nrows; ++r) dst[r * delta] = src[r * ldb];
    }
  } else {
    for (std::int64_t k0 = 0; k0 < n; k0 += kTileCols) {
      const std::int64_t k1 = std::min(k0 + kTileCols, n);
      for (std::int64_t r = 0; r < nrows; ++r) {
        const T* src = buf + r * ldb;
        T* dst = p + base[r];
        XFLOW_SIMD
        for (std::int64_t k = k0; k < k1; ++k) dst[k * stride] = src[k];
      }
    }
  }
}

// ----------------------------------------------------------- view specs

/// Operand read along the row. The body receives a unit-stride accessor
/// (staged through scratch when the view's innermost stride is not 1).
template <typename T>
struct In {
  View<const T, 4> v;
  using Elem = const T;
  using RowT = Row<true, const T>;
  static constexpr bool kStaged = true;
  static constexpr bool kWrite = false;
};
template <typename T>
In(View<const T, 4>) -> In<T>;

/// Operand written along the row (write-only; see the header comment for
/// the body's obligations). Unit-stride accessor, scattered back from
/// scratch when the view is strided.
template <typename T>
struct Out {
  View<T, 4> v;
  using Elem = T;
  using RowT = Row<true, T>;
  static constexpr bool kStaged = true;
  static constexpr bool kWrite = true;
};
template <typename T>
Out(View<T, 4>) -> Out<T>;

/// Read-only operand that keeps per-element stride addressing and never
/// gates the fast path nor stages: for views that may broadcast along the
/// innermost dim (stride 0), where a unit accessor is impossible.
template <typename T>
struct Pass {
  View<const T, 4> v;
  using Elem = const T;
  using RowT = Row<false, const T>;
  static constexpr bool kStaged = false;
  static constexpr bool kWrite = false;
};
template <typename T>
Pass(View<const T, 4>) -> Pass<T>;

/// True when this spec is satisfied by direct (unstaged) unit addressing.
template <typename Spec>
inline bool SpecUnit(const Spec& s) {
  return !Spec::kStaged || s.v.stride[3] == 1;
}

/// The accessor handed to the body on the direct (unstaged) paths.
template <typename Spec>
inline typename Spec::RowT DirectRow(const Spec& s, std::int64_t a,
                                     std::int64_t b, std::int64_t c) {
  if constexpr (Spec::kStaged) {
    return {s.v.ptr + a * s.v.stride[0] + b * s.v.stride[1] +
                c * s.v.stride[2],
            1};
  } else {
    return RowOf<false>(s.v, a, b, c);
  }
}

/// Scratch bytes this spec needs per staged tile (0 when it stages
/// nothing), rounded to cache-line multiples so carved buffers stay
/// aligned.
template <typename Spec>
inline std::size_t SpecScratchBytes(const Spec& s, std::int64_t n) {
  if constexpr (Spec::kStaged) {
    if (s.v.stride[3] != 1) {
      using E = std::remove_const_t<typename Spec::Elem>;
      const std::size_t raw =
          static_cast<std::size_t>(kTileRows * ScratchRowElems<E>(n)) *
          sizeof(E);
      return (raw + 63) / 64 * 64;
    }
  }
  return 0;
}

template <typename Spec>
struct PreparedRows {
  std::array<typename Spec::RowT, kTileRows> row{};
  std::remove_const_t<typename Spec::Elem>* buf = nullptr;  // scratch tile
  std::array<std::int64_t, kTileRows> base{};               // for scatter
};

/// Executes rows [begin, end) -- at most kTileRows of them -- staging every
/// strided In/Out operand's tile through per-thread scratch and invoking
/// body(a, b, c, row...) per row with the same accessor types as the
/// direct paths.
template <typename Body, typename... Specs>
inline void StagedRows(const std::array<std::int64_t, 4>& e,
                       std::int64_t begin, std::int64_t end, Body& body,
                       const Specs&... specs) {
  const std::int64_t n = e[3];
  const std::int64_t bc = e[1] * e[2];
  const std::int64_t nrows = end - begin;
  std::array<std::int64_t, kTileRows> a{}, b{}, c{};
  for (std::int64_t r = 0; r < nrows; ++r) {
    const std::int64_t row = begin + r;
    a[r] = row / bc;
    b[r] = (row % bc) / e[2];
    c[r] = row % e[2];
  }
  const std::size_t bytes = (SpecScratchBytes(specs, n) + ... + 0u);
  std::byte* scratch =
      bytes == 0 ? nullptr : static_cast<std::byte*>(ThreadScratch(bytes));
  std::size_t cursor = 0;

  auto prepare = [&](const auto& spec) {
    using Spec = std::remove_cvref_t<decltype(spec)>;
    PreparedRows<Spec> p;
    if constexpr (!Spec::kStaged) {
      for (std::int64_t r = 0; r < nrows; ++r) {
        p.row[r] = RowOf<false>(spec.v, a[r], b[r], c[r]);
      }
    } else {
      if (spec.v.stride[3] == 1) {
        for (std::int64_t r = 0; r < nrows; ++r) {
          p.row[r] = {spec.v.ptr + Off(spec.v, a[r], b[r], c[r], 0), 1};
        }
      } else {
        using E = std::remove_const_t<typename Spec::Elem>;
        E* buf = reinterpret_cast<E*>(scratch + cursor);
        cursor += SpecScratchBytes(spec, n);
        const std::int64_t ldb = ScratchRowElems<E>(n);
        for (std::int64_t r = 0; r < nrows; ++r) {
          p.base[r] = Off(spec.v, a[r], b[r], c[r], 0);
        }
        if constexpr (!Spec::kWrite) {
          GatherTile(spec.v.ptr, p.base.data(), nrows, n, spec.v.stride[3],
                     buf, ldb);
        }
        p.buf = buf;
        for (std::int64_t r = 0; r < nrows; ++r) {
          p.row[r] = {buf + r * ldb, 1};
        }
      }
    }
    return p;
  };
  // Braced init keeps left-to-right evaluation, so scratch carving is
  // sequential.
  std::tuple<PreparedRows<std::remove_cvref_t<Specs>>...> prepared{
      prepare(specs)...};

  for (std::int64_t r = 0; r < nrows; ++r) {
    std::apply(
        [&](const auto&... p) { body(a[r], b[r], c[r], p.row[r]...); },
        prepared);
  }

  [&]<std::size_t... I>(std::index_sequence<I...>) {
    auto scatter = [&](const auto& spec, const auto& p) {
      using Spec = std::remove_cvref_t<decltype(spec)>;
      if constexpr (Spec::kStaged && Spec::kWrite) {
        if (p.buf != nullptr) {
          using E = std::remove_const_t<typename Spec::Elem>;
          ScatterTile(p.buf, p.base.data(), nrows, n, spec.v.stride[3],
                      spec.v.ptr, ScratchRowElems<E>(n));
        }
      }
    };
    (scatter(specs, std::get<I>(prepared)), ...);
  }(std::index_sequence_for<Specs...>{});
}

// --------------------------------------------------------- map drivers

/// Runs body(a, b, c, row...) for every row, partitioned over the global
/// pool. Row accessors follow the specs (see the header comment); a single
/// body instantiation serves the contiguous fast path and the staged
/// strided path alike.
template <typename Body, typename... Specs>
inline void ForEachRow(const LoopDims& ld, Body&& body, Specs... specs) {
  const auto& e = ld.extents;
  const std::int64_t rows = RowsOf(e);
  if (rows <= 0 || e[3] <= 0) return;
  if ((SpecUnit(specs) && ...)) {
    ParallelRows(e, [&](std::int64_t a, std::int64_t b, std::int64_t c) {
      body(a, b, c, DirectRow(specs, a, b, c)...);
    });
    return;
  }
  const std::int64_t groups = (rows + kTileRows - 1) / kTileRows;
  const std::int64_t grain = std::max<std::int64_t>(
      1, kRowGrainElems / std::max<std::int64_t>(1, e[3] * kTileRows));
  xflow::ParallelFor(groups, grain, [&](std::int64_t g) {
    const std::int64_t begin = g * kTileRows;
    StagedRows(e, begin, std::min(rows, begin + kTileRows), body, specs...);
  });
}

// ------------------------------------------------------ reduce drivers

/// Fixed chunk count for deterministic reductions: a pure function of the
/// row count (never the thread count or pool state), so the combine tree
/// is identical for every run over the same extents.
inline std::int64_t ReduceChunks(std::int64_t rows) {
  constexpr std::int64_t kMaxChunks = 64;
  return std::min<std::int64_t>(rows, kMaxChunks);
}

/// Deterministic parallel reduction over row ranges into a caller-zeroed
/// fp32 accumulator. run_range(begin, end, partial) must fold rows
/// [begin, end) in order into `partial` (acc.size() floats). Each fixed
/// chunk accumulates into a private partial; partials are added into `acc`
/// in chunk order. Partials are padded out to cache-line multiples so
/// concurrent chunks never false-share -- padding changes memory placement
/// only, never the combine order, so it is determinism-neutral.
template <typename RangeFn>
inline void ParallelReduceRanges(std::int64_t rows, std::span<float> acc,
                                 RangeFn&& run_range) {
  if (rows <= 0) return;
  const std::int64_t chunks = ReduceChunks(rows);
  if (chunks <= 1) {
    run_range(0, rows, acc.data());
    return;
  }
  constexpr std::size_t kLineFloats = 64 / sizeof(float);
  const std::size_t stride =
      (acc.size() + kLineFloats - 1) / kLineFloats * kLineFloats;
  std::vector<float> partials(static_cast<std::size_t>(chunks) * stride,
                              0.0f);
  xflow::ParallelFor(chunks, 1, [&](std::int64_t ci) {
    run_range(rows * ci / chunks, rows * (ci + 1) / chunks,
              partials.data() + static_cast<std::size_t>(ci) * stride);
  });
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    const float* p = partials.data() + static_cast<std::size_t>(ci) * stride;
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += p[i];
  }
}

/// Cross-row reduction counterpart of ForEachRow:
/// body(a, b, c, part, row...) folds one row into the fp32 partial `part`
/// (and may also write row-exclusive Out streams, e.g. a fused dX).
/// Chunking follows ParallelReduceRanges; strided operands stage in tiles
/// *within* a chunk, which regroups copies but never reorders the
/// accumulation, so the combine tree stays a pure function of the extents.
template <typename Body, typename... Specs>
inline void ForEachRowReduce(const LoopDims& ld, std::span<float> acc,
                             Body&& body, Specs... specs) {
  const auto& e = ld.extents;
  const std::int64_t rows = RowsOf(e);
  if (rows <= 0 || e[3] <= 0) return;
  const std::int64_t bc = e[1] * e[2];
  const bool unit = (SpecUnit(specs) && ...);
  ParallelReduceRanges(
      rows, acc, [&](std::int64_t begin, std::int64_t end, float* part) {
        if (unit) {
          for (std::int64_t r = begin; r < end; ++r) {
            const std::int64_t a = r / bc;
            const std::int64_t b = (r % bc) / e[2];
            const std::int64_t c = r % e[2];
            body(a, b, c, part, DirectRow(specs, a, b, c)...);
          }
          return;
        }
        auto with_part = [&](std::int64_t a, std::int64_t b, std::int64_t c,
                             const auto&... row) {
          body(a, b, c, part, row...);
        };
        for (std::int64_t g = begin; g < end; g += kTileRows) {
          StagedRows(e, g, std::min(end, g + kTileRows), with_part,
                     specs...);
        }
      });
}

/// Shared bias-gradient reduction: folds dy over every dim the gradient
/// view lacks (stride 0), accumulating part[extra_base + Off(dbv, ...)].
/// One definition keeps the combine tree identical across BiasBackwardDW,
/// the fused BDRB bias stream, and the stacked AttnInputBias gradient --
/// which is what makes their fused==unfused bitwise matches hold.
template <typename T>
inline void ReduceBiasRows(const LoopDims& ld, const View<const T, 4>& dyv,
                           const View<T, 4>& dbv, std::int64_t extra_base,
                           std::span<float> acc) {
  const std::int64_t n = ld.extents[3];
  ForEachRowReduce(
      ld, acc,
      [&, n](std::int64_t a, std::int64_t b, std::int64_t c, float* part,
             const auto& dyr) {
        const std::int64_t base = extra_base + Off(dbv, a, b, c, 0);
        for (std::int64_t d = 0; d < n; ++d) {
          part[base + d * dbv.stride[3]] += float(dyr[d]);
        }
      },
      In{dyv});
}

}  // namespace xflow::ops::detail
