#include "tensor/gemm.hpp"

#include <algorithm>
#include <memory>

#include "common/threadpool.hpp"

namespace xflow {

namespace {
// Micro-panel GEMM (the BLIS/GotoBLAS layout). Each task owns one
// kMB x kNB output block. Per kKB-deep slice of K it packs A into
// kMR-row panels and B into kNR-column panels, converting to fp32 once,
// then runs the register kernel over every (A panel, B panel) pair with
// the B panel held in L1. The packed blocks fit in L2 (kMB*kKB + kKB*kNB
// floats = 224 KiB) and a B panel in L1 (kKB*kNR floats = 16 KiB on
// AVX-512). Large blocks matter more than a small footprint: A is
// re-packed once per block column and B once per block row, and on the
// encoder's shapes (measured on a 4-core AVX-512 Xeon) the pack cost a
// third of the GEMM's time at 96 x 128.
constexpr std::int64_t kMB = 192;
constexpr std::int64_t kNB = 256;
constexpr std::int64_t kKB = 128;

// Register tile: kMR rows by kNV vectors of kVec floats. Per k the kernel
// loads kNV B vectors and issues kMR broadcasts and kMR*kNV FMAs into
// accumulators that stay in registers. Eight independent accumulators
// cover the FMA latency (two ports, four cycles) and nothing more; AVX-512
// has 32 vector registers, so 8 x 32 keeps 16 and a late load no longer
// stalls the ports. Targets with 16 registers keep 8, the most that leave
// room for the B vector and the broadcast without spilling.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr std::int64_t kVec = 16, kNV = 2;
#elif defined(__AVX__)
constexpr std::int64_t kVec = 8, kNV = 1;
#else
constexpr std::int64_t kVec = 4, kNV = 1;
#endif
// aligned(4): loads need only float alignment; may_alias: plain float
// buffers are viewed through it.
using Vec __attribute__((vector_size(kVec * sizeof(float)), aligned(4),
                         may_alias)) = float;
#else
constexpr std::int64_t kVec = 1, kNV = 4;
using Vec = float;
#endif
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = kVec * kNV;

static_assert(kMB % kMR == 0 && kNB % kNR == 0,
              "blocks must divide evenly into register tiles");

// Per-thread pack/accumulate scratch: each task packs its own panels, so
// threads never share mutable buffers. Left uninitialized: a task writes
// every element before it reads it, so a thread keeps resident only the
// pages its largest block touched.
struct Scratch {
  std::unique_ptr<float[]> a_pack =
      std::make_unique_for_overwrite<float[]>(kMB * kKB);
  std::unique_ptr<float[]> b_pack =
      std::make_unique_for_overwrite<float[]>(kKB * kNB);
  std::unique_ptr<float[]> acc =
      std::make_unique_for_overwrite<float[]>(kMB * kNB);
};

Scratch& TlsScratch() {
  thread_local Scratch s;
  return s;
}

// Offset tables for dense layouts are affine (constant stride); detecting
// that once per call lets the pack and writeback loops use direct strided
// addressing, which vectorizes, instead of a per-element table load,
// which does not. Non-affine tables keep their lookups.
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

bool UnitStride(Affine t) { return t.yes && t.stride == 1; }

/// Asks for the cache lines of [p, p + bytes) ahead of use: the pack
/// reads its source in runs of a few cache lines at a large stride, which
/// the hardware prefetchers do not follow.
inline void Prefetch([[maybe_unused]] const void* p,
                     [[maybe_unused]] std::int64_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  for (std::int64_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(static_cast<const char*>(p) + off);
  }
#endif
}

/// Packs `lanes` indices of a block's free dim (m for A, n for B) by kb
/// steps of k into consecutive kW-lane panels of fp32: element (lane l,
/// step k) of panel p lands at dst[p * kW * kKB + l * kLaneStep +
/// k * kKStep]. A ragged last panel is zeroed first, so the kernel runs
/// full tiles only and no edge test sits inside a copy loop. The copy
/// reads the source in its own memory order: a k-row of lanes at a time
/// when the lanes are unit-stride and the panel interleaves them,
/// otherwise a lane's k-run at a time. Either way it prefetches the run
/// kAhead runs on.
template <std::int64_t kW, std::int64_t kLaneStep, std::int64_t kKStep,
          typename TIn>
void PackBlock(const TIn* src, const std::int64_t* lane_t, Affine lane,
               const std::int64_t* k_t, Affine k, std::int64_t lanes,
               std::int64_t kb, float* dst) {
  constexpr std::int64_t kAhead = 4;
  constexpr auto kElem = static_cast<std::int64_t>(sizeof(TIn));
  const std::int64_t full = lanes / kW * kW;
  if (full < lanes) {
    float* edge = dst + full * kKB;
    for (std::int64_t l = lanes - full; l < kW; ++l) {
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        edge[l * kLaneStep + kk * kKStep] = 0.0f;
      }
    }
  }
  if (kLaneStep == 1 && UnitStride(lane)) {
    for (std::int64_t kk = 0; kk < kb; ++kk) {
      Prefetch(src + k_t[std::min(kk + kAhead, kb - 1)] + lane_t[0],
               lanes * kElem);
      const TIn* s = src + k_t[kk] + lane_t[0];
      float* d = dst + kk * kKStep;
      for (std::int64_t p = 0; p < full; p += kW) {
        for (std::int64_t l = 0; l < kW; ++l) d[p * kKB + l] = float(s[p + l]);
      }
      for (std::int64_t l = full; l < lanes; ++l) {
        d[full * kKB + l - full] = float(s[l]);
      }
    }
    return;
  }
  for (std::int64_t l = 0; l < lanes; ++l) {
    const TIn* s = src + lane_t[l];
    float* d = dst + l / kW * kW * kKB + l % kW * kLaneStep;
    if (UnitStride(k)) {
      Prefetch(src + lane_t[std::min(l + kAhead, lanes - 1)] + k_t[0],
               kb * kElem);
    }
    if (k.yes) {
      s += k_t[0];
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        d[kk * kKStep] = float(s[kk * k.stride]);
      }
    } else {
      for (std::int64_t kk = 0; kk < kb; ++kk) {
        d[kk * kKStep] = float(s[k_t[kk]]);
      }
    }
  }
}

/// acc[kMR][kNR] (row stride ldc) += A panel * B panel over kb steps of
/// k. The B panel is [kb][kNR]; the A panel is [kb][kMR] when
/// kAInterleaved, else [kMR][kKB]. The k loop is the only accumulation
/// loop and runs in ascending order, so every output element is one fp32
/// FMA chain whatever the tile shape or thread count.
// noinline: inlined into the task loop the kernel competes with the
// packing state for registers.
template <bool kAInterleaved>
[[gnu::noinline]] void MicroKernel(const float* a, const float* b,
                                   std::int64_t kb, float* acc,
                                   std::int64_t ldc) {
  Vec c[kMR][kNV];
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t v = 0; v < kNV; ++v) {
      c[r][v] = *reinterpret_cast<const Vec*>(acc + r * ldc + v * kVec);
    }
  }
  for (std::int64_t k = 0; k < kb; ++k) {
    Vec bv[kNV];
    for (std::int64_t v = 0; v < kNV; ++v) {
      bv[v] = *reinterpret_cast<const Vec*>(b + k * kNR + v * kVec);
    }
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = kAInterleaved ? a[k * kMR + r] : a[r * kKB + k];
      for (std::int64_t v = 0; v < kNV; ++v) c[r][v] += bv[v] * av;
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
    for (std::int64_t v = 0; v < kNV; ++v) {
      *reinterpret_cast<Vec*>(acc + r * ldc + v * kVec) = c[r][v];
    }
  }
}

struct Layout {
  Affine am, ak, bk, bn, cn;
  bool a_interleaved;  // A panels [kb][kMR]: m, not k, is unit-stride
};

/// Computes the kMB x kNB output block at (m0, n0) start to finish: pack,
/// accumulate over all K slices, write back. Blocks are disjoint in C and
/// use thread-local scratch, so any assignment of blocks to threads
/// yields bitwise-identical results.
template <typename TIn, typename TOut>
void GemmBlock(const TIn* a, const TIn* b, TOut* c,
               std::span<const std::int64_t> a_m,
               std::span<const std::int64_t> a_k,
               std::span<const std::int64_t> b_k,
               std::span<const std::int64_t> b_n,
               std::span<const std::int64_t> c_m,
               std::span<const std::int64_t> c_n, float alpha, float beta,
               std::int64_t m0, std::int64_t n0, const Layout& lay) {
  const auto k_total = static_cast<std::int64_t>(a_k.size());
  const std::int64_t mb =
      std::min(kMB, static_cast<std::int64_t>(a_m.size()) - m0);
  const std::int64_t nb =
      std::min(kNB, static_cast<std::int64_t>(b_n.size()) - n0);
  const std::int64_t m_panels = (mb + kMR - 1) / kMR;
  const std::int64_t n_panels = (nb + kNR - 1) / kNR;
  const std::int64_t ldc = n_panels * kNR;

  Scratch& s = TlsScratch();
  float* a_pack = s.a_pack.get();
  float* b_pack = s.b_pack.get();
  float* acc = s.acc.get();
  std::fill(acc, acc + m_panels * kMR * ldc, 0.0f);

  for (std::int64_t k0 = 0; k0 < k_total; k0 += kKB) {
    const std::int64_t kb = std::min(kKB, k_total - k0);
    if (lay.a_interleaved) {
      PackBlock<kMR, 1, kMR>(a, a_m.data() + m0, lay.am, a_k.data() + k0,
                             lay.ak, mb, kb, a_pack);
    } else {
      PackBlock<kMR, kKB, 1>(a, a_m.data() + m0, lay.am, a_k.data() + k0,
                             lay.ak, mb, kb, a_pack);
    }
    PackBlock<kNR, 1, kNR>(b, b_n.data() + n0, lay.bn, b_k.data() + k0,
                           lay.bk, nb, kb, b_pack);
    for (std::int64_t q = 0; q < n_panels; ++q) {
      for (std::int64_t p = 0; p < m_panels; ++p) {
        const float* ap = a_pack + p * kMR * kKB;
        const float* bp = b_pack + q * kNR * kKB;
        float* tile = acc + p * kMR * ldc + q * kNR;
        if (lay.a_interleaved) {
          MicroKernel<true>(ap, bp, kb, tile, ldc);
        } else {
          MicroKernel<false>(ap, bp, kb, tile, ldc);
        }
      }
    }
  }

  for (std::int64_t m = 0; m < mb; ++m) {
    const std::int64_t cm = c_m[static_cast<std::size_t>(m0 + m)];
    const float* accrow = acc + m * ldc;
    if (lay.cn.yes && beta == 0.0f) {
      TOut* dst = c + cm + c_n[static_cast<std::size_t>(n0)];
      const std::int64_t s = lay.cn.stride;
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

  Layout lay{.am = DetectAffine(a_m),
             .ak = DetectAffine(a_k),
             .bk = DetectAffine(b_k),
             .bn = DetectAffine(b_n),
             .cn = DetectAffine(c_n)};
  lay.a_interleaved = UnitStride(lay.am) && !UnitStride(lay.ak);
  const std::int64_t m_blocks = (m_total + kMB - 1) / kMB;
  const std::int64_t n_blocks = (n_total + kNB - 1) / kNB;
  ParallelFor(m_blocks * n_blocks, 1, [&](std::int64_t t) {
    GemmBlock(a, b, c, a_m, a_k, b_k, b_n, c_m, c_n, alpha, beta,
              (t / n_blocks) * kMB, (t % n_blocks) * kNB, lay);
  });
}

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
