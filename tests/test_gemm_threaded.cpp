// Bitwise determinism of the parallel GEMM: the block grid may be executed
// by any number of threads, but every output element must come out
// identical to the single-threaded run, across dtypes, ragged extents and
// strided (transposed) operand layouts -- and identical to a serial
// ascending-k loop, whatever the blocking or register tile.
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/threadpool.hpp"

namespace xflow {
namespace {

std::vector<std::int64_t> Iota(std::int64_t n, std::int64_t stride) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = i * stride;
  }
  return v;
}

std::vector<float> RandomFloats(std::int64_t n, std::uint64_t seed) {
  Philox4x32 gen(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        gen.UniformAt(static_cast<std::uint64_t>(i)) - 0.5f;
  }
  return v;
}

template <typename T>
std::vector<T> Random(std::int64_t n, std::uint64_t seed) {
  const auto f = RandomFloats(n, seed);
  return {f.begin(), f.end()};
}

template <typename T>
bool BitwiseEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Runs C = alpha*A*B + beta*C on row-major operands at the given thread
/// count and returns the raw output buffer.
template <typename TIn, typename TOut>
std::vector<TOut> RunRowMajor(const std::vector<TIn>& a,
                              const std::vector<TIn>& b, std::int64_t m,
                              std::int64_t n, std::int64_t k, int threads,
                              float alpha = 1.0f, float beta = 0.0f) {
  ThreadPool::SetGlobalThreads(threads);
  // Pre-fill C deterministically so beta != 0 paths are exercised.
  std::vector<TOut> c(static_cast<std::size_t>(m * n));
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = TOut(static_cast<float>(i % 17) * 0.25f);
  }
  const auto a_m = Iota(m, k), a_k = Iota(k, 1);
  const auto b_k = Iota(k, n), b_n = Iota(n, 1);
  const auto c_m = Iota(m, n), c_n = Iota(n, 1);
  GemmOffsets<TIn, TOut>(a.data(), b.data(), c.data(), a_m, a_k, b_k, b_n,
                         c_m, c_n, alpha, beta);
  return c;
}

struct Extents {
  std::int64_t m, n, k;
};

// gemm.cpp cuts the output into 192 x 256 blocks and K into 128-deep
// slices, with an 8 x 32 register tile on AVX-512 (8 x 8 on AVX, 8 x 4
// otherwise); the GEMM before it used 64 x 96 blocks, 256-deep slices and
// an 8 x 16 tile. The ragged cases straddle every one of those boundaries.
// Every contraction shape runs here, so the degenerate ones are cases too:
// m = 1 and n = 1 (matrix x vector), m = n = 1 (a dot product), k = 1 (an
// outer product, and with a free side of 1 a scaled copy), and 1 x 1 x 1.
const Extents kCases[] = {
    {1, 1, 1},       {3, 5, 7},       {4, 16, 1},      {64, 96, 256},
    {65, 97, 257},   {63, 95, 255},   {130, 50, 40},   {30, 200, 33},
    {128, 192, 64},  {17, 113, 300},  {191, 255, 127}, {193, 257, 129},
    {1, 70, 33},     {70, 1, 33},     {1, 1, 501},     {120, 1, 1},
    {1, 120, 1},
};

class GemmThreadedDeterminism : public ::testing::Test {
 protected:
  ~GemmThreadedDeterminism() override {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

TEST_F(GemmThreadedDeterminism, Fp32BitwiseAcrossThreadCounts) {
  for (const auto& e : kCases) {
    const auto a = RandomFloats(e.m * e.k, 1);
    const auto b = RandomFloats(e.k * e.n, 2);
    const auto ref =
        RunRowMajor<float, float>(a, b, e.m, e.n, e.k, /*threads=*/1);
    for (int threads : {2, 4, 8}) {
      const auto got = RunRowMajor<float, float>(a, b, e.m, e.n, e.k, threads);
      EXPECT_TRUE(BitwiseEqual(ref, got))
          << "m=" << e.m << " n=" << e.n << " k=" << e.k
          << " threads=" << threads;
    }
  }
}

TEST_F(GemmThreadedDeterminism, Fp16BitwiseAcrossThreadCounts) {
  for (const auto& e : kCases) {
    const auto a = Random<Half>(e.m * e.k, 3);
    const auto b = Random<Half>(e.k * e.n, 4);
    const auto ref =
        RunRowMajor<Half, Half>(a, b, e.m, e.n, e.k, /*threads=*/1);
    for (int threads : {2, 8}) {
      const auto got = RunRowMajor<Half, Half>(a, b, e.m, e.n, e.k, threads);
      EXPECT_TRUE(BitwiseEqual(ref, got))
          << "m=" << e.m << " n=" << e.n << " k=" << e.k
          << " threads=" << threads;
    }
  }
}

TEST_F(GemmThreadedDeterminism, MixedFp16InFp32OutBitwise) {
  for (const auto& e : kCases) {
    const auto a = Random<Half>(e.m * e.k, 5);
    const auto b = Random<Half>(e.k * e.n, 6);
    const auto ref =
        RunRowMajor<Half, float>(a, b, e.m, e.n, e.k, /*threads=*/1);
    const auto got = RunRowMajor<Half, float>(a, b, e.m, e.n, e.k, 8);
    EXPECT_TRUE(BitwiseEqual(ref, got))
        << "m=" << e.m << " n=" << e.n << " k=" << e.k;
  }
}

TEST_F(GemmThreadedDeterminism, AlphaBetaBitwiseAcrossThreadCounts) {
  const auto a = RandomFloats(65 * 130, 7);
  const auto b = RandomFloats(130 * 97, 8);
  const auto ref = RunRowMajor<float, float>(a, b, 65, 97, 130, 1, 0.5f, 2.0f);
  const auto got = RunRowMajor<float, float>(a, b, 65, 97, 130, 8, 0.5f, 2.0f);
  EXPECT_TRUE(BitwiseEqual(ref, got));
}

TEST_F(GemmThreadedDeterminism, TransposedLayoutsBitwiseAcrossThreadCounts) {
  // A stored column-major (a_m stride 1, a_k stride m) and B stored
  // column-major (b_k stride 1, b_n stride k): the offset tables encode
  // the transposition, packing must still be deterministic.
  const std::int64_t m = 70, n = 110, k = 90;
  const auto a = RandomFloats(m * k, 9);
  const auto b = RandomFloats(k * n, 10);
  const auto a_m = Iota(m, 1), a_k = Iota(k, m);
  const auto b_k = Iota(k, 1), b_n = Iota(n, k);
  const auto c_m = Iota(m, n), c_n = Iota(n, 1);
  auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    GemmOffsets<float, float>(a.data(), b.data(), c.data(), a_m, a_k, b_k,
                              b_n, c_m, c_n, 1.0f, 0.0f);
    return c;
  };
  const auto ref = run(1);
  EXPECT_TRUE(BitwiseEqual(ref, run(4)));
  EXPECT_TRUE(BitwiseEqual(ref, run(8)));
}

TEST_F(GemmThreadedDeterminism, MatchesNaiveReferenceWithinTolerance) {
  // Guards against the parallel rewrite computing the *wrong* product
  // deterministically: check against a naive triple loop.
  const std::int64_t m = 33, n = 47, k = 129;
  const auto a = RandomFloats(m * k, 11);
  const auto b = RandomFloats(k * n, 12);
  const auto got = RunRowMajor<float, float>(a, b, m, n, k, 8);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float want = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        want += a[static_cast<std::size_t>(i * k + p)] *
                b[static_cast<std::size_t>(p * n + j)];
      }
      ASSERT_NEAR(want, got[static_cast<std::size_t>(i * n + j)],
                  1e-4f * static_cast<float>(k))
          << "i=" << i << " j=" << j;
    }
  }
}

TEST_F(GemmThreadedDeterminism, EmptyKZeroesOrScalesOutput) {
  // k = 0: C must become beta * C (and exactly 0 when beta = 0).
  ThreadPool::SetGlobalThreads(4);
  const std::int64_t m = 8, n = 8;
  std::vector<float> a, b;
  std::vector<float> c(static_cast<std::size_t>(m * n), 3.0f);
  const auto c_m = Iota(m, n), c_n = Iota(n, 1);
  const std::vector<std::int64_t> empty;
  GemmOffsets<float, float>(a.data(), b.data(), c.data(), c_m, empty, empty,
                            c_n, c_m, c_n, 1.0f, 0.5f);
  for (float v : c) EXPECT_EQ(v, 1.5f);
}

// ---------------------------------------------------------------------
// The bitwise contract, pinned to a serial loop: every output element is
// one fp32 chain acc += a * b over ascending k from 0.0f, written back as
// TOut(alpha * acc + prior). Packing order, blocking, register tile and
// thread count may not move a bit of it.

struct Tables {
  std::vector<std::int64_t> a_m, a_k, b_k, b_n, c_m, c_n;
};

/// Dense operands: A row-major (k unit-stride) or column-major (m
/// unit-stride), B with n or k unit-stride, C row-major.
Tables DenseTables(const Extents& e, bool a_m_contiguous,
                   bool b_k_contiguous) {
  Tables t;
  t.a_m = a_m_contiguous ? Iota(e.m, 1) : Iota(e.m, e.k);
  t.a_k = a_m_contiguous ? Iota(e.k, e.m) : Iota(e.k, 1);
  t.b_k = b_k_contiguous ? Iota(e.k, 1) : Iota(e.k, e.n);
  t.b_n = b_k_contiguous ? Iota(e.n, e.k) : Iota(e.n, 1);
  t.c_m = Iota(e.m, e.n);
  t.c_n = Iota(e.n, 1);
  return t;
}

/// A table no constant stride describes: `n` indices in two interleaved
/// halves, the odd ones `gap` elements after the even ones.
std::vector<std::int64_t> Interleaved(std::int64_t n, std::int64_t gap) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = i / 2 + (i % 2) * gap;
  }
  return v;
}

/// Elements an operand addressed by (rows, cols) offset tables spans.
std::int64_t Extent(const std::vector<std::int64_t>& rows,
                    const std::vector<std::int64_t>& cols) {
  return *std::max_element(rows.begin(), rows.end()) +
         *std::max_element(cols.begin(), cols.end()) + 1;
}

/// The contract itself, one element at a time.
template <typename TIn, typename TOut>
[[gnu::noinline]] void SerialGemm(const TIn* a, const TIn* b, TOut* c,
                                  const Tables& t, float alpha, float beta) {
  for (std::size_t m = 0; m < t.a_m.size(); ++m) {
    for (std::size_t n = 0; n < t.b_n.size(); ++n) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < t.a_k.size(); ++k) {
        acc += float(a[t.a_m[m] + t.a_k[k]]) * float(b[t.b_k[k] + t.b_n[n]]);
      }
      TOut& dst = c[t.c_m[m] + t.c_n[n]];
      const float prior = beta == 0.0f ? 0.0f : beta * float(dst);
      dst = TOut(alpha * acc + prior);
    }
  }
}

template <typename TIn, typename TOut>
void ExpectSerialBits(const Tables& t, float alpha, float beta,
                      const std::string& what) {
  const auto a = Random<TIn>(Extent(t.a_m, t.a_k), 21);
  const auto b = Random<TIn>(Extent(t.b_k, t.b_n), 22);
  std::vector<TOut> prior(static_cast<std::size_t>(Extent(t.c_m, t.c_n)));
  for (std::size_t i = 0; i < prior.size(); ++i) {
    prior[i] = TOut(static_cast<float>(i % 13) * 0.125f - 0.75f);
  }
  auto want = prior;
  SerialGemm(a.data(), b.data(), want.data(), t, alpha, beta);
  for (int threads : {1, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    auto got = prior;
    GemmOffsets<TIn, TOut>(a.data(), b.data(), got.data(), t.a_m, t.a_k,
                           t.b_k, t.b_n, t.c_m, t.c_n, alpha, beta);
    EXPECT_TRUE(BitwiseEqual(want, got)) << what << " threads=" << threads;
  }
}

template <typename TIn, typename TOut>
void ExpectSerialBitsEverywhere(const char* types) {
  for (const auto& e : kCases) {
    for (bool a_m_contiguous : {false, true}) {
      for (bool b_k_contiguous : {false, true}) {
        std::ostringstream what;
        what << types << " m=" << e.m << " n=" << e.n << " k=" << e.k
             << (a_m_contiguous ? " A m-contiguous" : " A k-contiguous")
             << (b_k_contiguous ? " B k-contiguous" : " B n-contiguous");
        const Tables t = DenseTables(e, a_m_contiguous, b_k_contiguous);
        ExpectSerialBits<TIn, TOut>(t, 1.0f, 0.0f, what.str());
        if (e.m * e.n * e.k < 100000) {
          ExpectSerialBits<TIn, TOut>(t, 0.75f, -1.5f,
                                      what.str() + " alpha=0.75 beta=-1.5");
        }
      }
    }
  }
  // Non-affine k, n and output-column tables keep per-element lookups.
  const Extents e{70, 90, 100};
  Tables t;
  t.a_m = Iota(e.m, 2 * e.k);
  t.a_k = Interleaved(e.k, e.k + 3);
  t.b_k = Iota(e.k, 2 * e.n);
  t.b_n = Interleaved(e.n, e.n + 5);
  t.c_m = Iota(e.m, 2 * e.n);
  t.c_n = Interleaved(e.n, e.n + 1);
  ExpectSerialBits<TIn, TOut>(t, 1.0f, 0.0f,
                              std::string(types) + " non-affine tables");
  ExpectSerialBits<TIn, TOut>(t, 0.5f, 2.0f,
                              std::string(types) +
                                  " non-affine tables alpha=0.5 beta=2");
}

TEST_F(GemmThreadedDeterminism, Fp16MatchesSerialChainBitwise) {
  ExpectSerialBitsEverywhere<Half, Half>("Half->Half");
}

TEST_F(GemmThreadedDeterminism, Fp32MatchesSerialChainBitwise) {
  ExpectSerialBitsEverywhere<float, float>("float->float");
}

TEST_F(GemmThreadedDeterminism, MixedMatchesSerialChainBitwise) {
  ExpectSerialBitsEverywhere<Half, float>("Half->float");
}

}  // namespace
}  // namespace xflow
