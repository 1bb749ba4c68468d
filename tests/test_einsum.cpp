#include "tensor/einsum.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/memstats.hpp"
#include "test_util.hpp"

// Heap allocations on any thread while counting is on. Replacing the
// global allocation functions is the one way to see the allocations a
// library call makes internally; the replacement lives in this test
// binary only.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int> g_allocs{0};
}  // namespace

// Out of line, so GCC does not pair an inlined free() with a new-
// expression and report a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace xflow {
namespace {

using testutil::ThreadGuard;

TEST(EinsumSpec, ParsesAndClassifiesMhaProjection) {
  // Input projection from the paper's MHA code: wq[phi] * q[ibj] -> [phbj].
  auto s = EinsumSpec::Parse("phi,ibj->phbj");
  EXPECT_EQ(s.m_dims, "ph");
  EXPECT_EQ(s.n_dims, "bj");
  EXPECT_EQ(s.k_dims, "i");
  EXPECT_EQ(s.batch_dims, "");
}

TEST(EinsumSpec, ParsesBatchedAttentionScore) {
  // beta = kk[phbk] * qq[phbj] -> [hbjk]: batched over h,b; contracts p.
  auto s = EinsumSpec::Parse("phbk,phbj->hbjk");
  EXPECT_EQ(s.batch_dims, "hb");
  EXPECT_EQ(s.m_dims, "k");
  EXPECT_EQ(s.n_dims, "j");
  EXPECT_EQ(s.k_dims, "p");
}

TEST(EinsumSpec, ParsesOutputProjection) {
  auto s = EinsumSpec::Parse("whi,whbj->ibj");
  EXPECT_EQ(s.m_dims, "i");
  EXPECT_EQ(s.n_dims, "bj");
  EXPECT_EQ(s.k_dims, "wh");
}

TEST(EinsumSpec, RejectsMalformed) {
  EXPECT_THROW(EinsumSpec::Parse("abc"), InvalidArgument);
  EXPECT_THROW(EinsumSpec::Parse("ab,bc"), InvalidArgument);
  // 'x' appears only in one input and not the output:
  EXPECT_THROW(EinsumSpec::Parse("ax,ab->b"), InvalidArgument);
}

TEST(EinsumSpec, FlopCountMatchesPaperQkv) {
  // Q/K/V fused projection at paper dims: 2 * (3*64*16) * 1024 * (8*512)
  // = 24 "Gflop" in the paper's 2^30 convention (Table III row 1).
  auto s = EinsumSpec::Parse("phi,ibj->phbj");
  Shape w("phi", {192, 16, 1024});
  Shape x("ibj", {1024, 8, 512});
  const double gflop =
      static_cast<double>(s.FlopCount(w, x)) / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(gflop, 24.0, 1e-9);
}

TEST(Einsum, MatchesReferenceMatmul) {
  auto a = TensorF::Random(Shape("mk", {17, 23}), 1);
  auto b = TensorF::Random(Shape("kn", {23, 9}), 2);
  auto fast = Einsum<float>("mk,kn->mn", a, b);
  auto ref = EinsumRef<float>("mk,kn->mn", a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-5);
}

TEST(Einsum, HandlesTransposedOperandLayouts) {
  auto a = TensorF::Random(Shape("mk", {17, 23}), 1).Permuted("km");
  auto b = TensorF::Random(Shape("kn", {23, 9}), 2).Permuted("nk");
  auto fast = Einsum<float>("mk,kn->mn", a, b);
  auto ref = EinsumRef<float>("mk,kn->mn", a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-5);
}

TEST(Einsum, AlphaScalesResult) {
  auto a = TensorF::Random(Shape("mk", {5, 7}), 3);
  auto b = TensorF::Random(Shape("kn", {7, 4}), 4);
  auto one = Einsum<float>("mk,kn->mn", a, b, 1.0f);
  auto eight = Einsum<float>("mk,kn->mn", a, b, 0.125f);
  for (std::int64_t i = 0; i < one.size(); ++i) {
    EXPECT_NEAR(one.data()[i] * 0.125f, eight.data()[i], 1e-6);
  }
}

TEST(Einsum, BetaAccumulatesIntoOutput) {
  auto a = TensorF::Random(Shape("mk", {5, 7}), 3);
  auto b = TensorF::Random(Shape("kn", {7, 4}), 4);
  auto c = Einsum<float>("mk,kn->mn", a, b);
  auto acc = TensorF::Full(Shape("mn", {5, 4}), 1.0f);
  EinsumInto<float>(EinsumSpec::Parse("mk,kn->mn"), a, b, acc, 1.0f, 1.0f);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(acc.data()[i], c.data()[i] + 1.0f, 1e-5);
  }
}

TEST(Einsum, HalfInputsAccumulateInFp32) {
  // Sum of 4096 values of 0.01: fp16 accumulation would stall at ~0.25
  // increments; fp32 accumulation keeps full precision until final rounding.
  auto a = Tensor<Half>::Full(Shape("mk", {1, 4096}), 0.01f);
  auto b = Tensor<Half>::Full(Shape("kn", {4096, 1}), 1.0f);
  auto c = Einsum<Half>("mk,kn->mn", a, b);
  const float expected = 4096.0f * float(Half(0.01f));
  EXPECT_NEAR(float(c.data()[0]), expected, expected * 1e-3);
}

// Property-style sweep: fast path equals reference on every MHA contraction
// at reduced dimensions, in every operand memory layout combination tested.
class EinsumContractionSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EinsumContractionSweep, FastPathMatchesReference) {
  const auto& [spec_str, layout_kind] = GetParam();
  auto spec = EinsumSpec::Parse(spec_str);

  // Reduced paper dimensions.
  auto extent = [](char d) -> std::int64_t {
    switch (d) {
      case 'p': case 'w': return 8;
      case 'h': return 3;
      case 'i': return 24;
      case 'b': return 2;
      case 'j': case 'k': return 10;
      case 'u': return 16;
      default: return 4;
    }
  };
  auto make = [&](const std::string& dims, std::uint64_t seed) {
    std::vector<DimExt> de;
    for (char d : dims) de.push_back({d, extent(d)});
    auto t = TensorH::Random(Shape(de), seed);
    if (layout_kind == "reversed") {
      std::string rev(dims.rbegin(), dims.rend());
      return t.Permuted(rev);
    }
    return t;
  };

  auto a = make(spec.a, 11);
  auto b = make(spec.b, 22);
  auto fast = Einsum<Half>(spec, a, b);
  auto ref = EinsumRef<Half>(spec, a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 0.01) << spec_str << " " << layout_kind;
}

INSTANTIATE_TEST_SUITE_P(
    AllMhaContractions, EinsumContractionSweep,
    ::testing::Combine(
        ::testing::Values("phi,ibj->phbj",    // Q/K/V projection
                          "phbk,phbj->hbjk",  // QK^T
                          "whbk,hbjk->whbj",  // gamma
                          "whi,whbj->ibj",    // output projection
                          "ui,ibj->ubj",      // linear1
                          "iu,ubj->ibj"),     // linear2
        ::testing::Values("natural", "reversed")));

// ---------------------------------------------------------------------
// Classification (tensor/einsum_class.hpp).

TEST(EinsumClassify, BatchAloneDecidesTheClass) {
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 8, .k = 8, .batch = 1}),
            EinsumClass::kGemm);
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 8, .k = 8, .batch = 3}),
            EinsumClass::kBatchedGemm);
  // Degenerate extents are small GEMMs of the same kernel: a gemv, an
  // outer product, a dot product and a scaled copy are all kGemm.
  for (const GemmExtents& e : {GemmExtents{.m = 8, .n = 1, .k = 8},
                               GemmExtents{.m = 1, .n = 8, .k = 8},
                               GemmExtents{.m = 8, .n = 8, .k = 1},
                               GemmExtents{.m = 1, .n = 1, .k = 8},
                               GemmExtents{.m = 8, .n = 1, .k = 1},
                               GemmExtents{.m = 1, .n = 1, .k = 1}}) {
    EXPECT_EQ(ClassifyContraction(e), EinsumClass::kGemm)
        << e.m << "x" << e.n << "x" << e.k;
  }
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 1, .k = 8, .batch = 4}),
            EinsumClass::kBatchedGemm);
}

TEST(EinsumClassify, DerivesFromSpecAndShapes) {
  auto spec = EinsumSpec::Parse("phbk,phbj->hbjk");
  Shape k("phbk", {8, 3, 2, 10});
  Shape q("phbj", {8, 3, 2, 10});
  const auto& info = ClassifyEinsum(spec, k, q);
  EXPECT_EQ(info.cls, EinsumClass::kBatchedGemm);
  EXPECT_EQ(info.extents.batch, 6);
  EXPECT_EQ(info.extents.m, 10);
  EXPECT_EQ(info.extents.n, 10);
  EXPECT_EQ(info.extents.k, 8);
  // Extents come from the shapes, not the spec's rank: an n-group of
  // extent 1 flattens to n == 1.
  auto mk = EinsumSpec::Parse("mk,kn->mn");
  const auto& gemv =
      ClassifyEinsum(mk, Shape("mk", {9, 17}), Shape("kn", {17, 1}));
  EXPECT_EQ(gemv.cls, EinsumClass::kGemm);
  EXPECT_EQ(gemv.extents.n, 1);
}

TEST(EinsumClassify, CacheRebuildsNothingOnRepeatLookups) {
  auto spec = EinsumSpec::Parse("ui,ibj->ubj");
  Shape w("ui", {12, 24});
  Shape x("ibj", {24, 2, 5});
  (void)ClassifyEinsum(spec, w, x);  // may or may not be the first build
  const auto before = memstats::Read();
  const auto& again = ClassifyEinsum(spec, w, x);
  const auto after = memstats::Read();
  EXPECT_EQ(after.einsum_class_builds, before.einsum_class_builds);
  EXPECT_EQ(again.cls, EinsumClass::kGemm);
}

TEST(EinsumAllocations, PassingChecksFormatNoMessage) {
  // The extent and rank checks build their messages only on failure, so
  // a warm unbatched single-block contraction allocates nothing but the
  // two cache keys it looks up (its class and its offset tables).
  ThreadGuard threads(2);
  const auto spec = EinsumSpec::Parse("ik,kj->ij");
  const auto a = TensorH::Random(Shape("ik", {8, 16}), 1);
  const auto b = TensorH::Random(Shape("kj", {16, 8}), 2);
  TensorH out(Shape("ij", {8, 8}));
  EinsumInto(spec, a, b, out);  // fills both caches
  g_allocs.store(0);
  g_count_allocs.store(true);
  EinsumInto(spec, a, b, out);
  g_count_allocs.store(false);
  EXPECT_LE(g_allocs.load(), 2);
}

TEST(EinsumErrors, NameTheSpecAndShapes) {
  try {
    EinsumSpec::Parse("ax,ab->b");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ax,ab->b"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos)
        << e.what();
  }
  auto spec = EinsumSpec::Parse("mk,kn->mn");
  try {
    ContractionExtents(spec, Shape("mx", {4, 5}), Shape("kn", {5, 6}));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mk,kn->mn"), std::string::npos) << what;
    EXPECT_NE(what.find("[m:4,x:5]"), std::string::npos) << what;
    EXPECT_NE(what.find("[k:5,n:6]"), std::string::npos) << what;
  }
  auto a = TensorF::Random(Shape("mk", {3, 4}), 1);
  auto b = TensorF::Random(Shape("kn", {5, 2}), 2);  // k mismatch: 4 vs 5
  auto out = TensorF{Shape("mn", {3, 2})};
  try {
    EinsumInto<float>(spec, a, b, out);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mk,kn->mn"), std::string::npos) << what;
    EXPECT_NE(what.find("'k'"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// Every shape runs on the one GEMM, degenerate ones included (gemv, outer
// product, dot product, scaled copy): at 1, 2 and 8 threads and with
// either batch parallelism the result is bitwise the 1-thread result, for
// Half and float, in natural and reversed (strided-view) layouts, and it
// matches the naive reference.

template <typename T>
void ExpectShapeBitwiseStable(const std::string& spec_str,
                              const std::map<char, std::int64_t>& extent,
                              EinsumClass want, bool reversed) {
  auto spec = EinsumSpec::Parse(spec_str);
  auto make = [&](const std::string& dims, std::uint64_t seed) {
    std::vector<DimExt> de;
    for (char d : dims) de.push_back({d, extent.at(d)});
    auto t = Tensor<T>::Random(Shape(de), seed);
    if (reversed && dims.size() > 1) {
      return t.Permuted(std::string(dims.rbegin(), dims.rend()));
    }
    return t;
  };
  auto a = make(spec.a, 7);
  auto b = make(spec.b, 9);
  ASSERT_EQ(ClassifyEinsum(spec, a.shape(), b.shape()).cls, want) << spec_str;

  std::vector<DimExt> out_dims;
  for (char d : spec.out) out_dims.push_back({d, extent.at(d)});
  const Shape out_shape{out_dims};

  Tensor<T> baseline{out_shape};
  {
    ThreadGuard guard(1);
    EinsumInto(spec, a, b, baseline);
  }
  const double tolerance = std::is_same_v<T, Half> ? 0.01 : 1e-5;
  EXPECT_LT(MaxAbsDiff(baseline, EinsumRef(spec, a, b)), tolerance)
      << spec_str << (reversed ? " reversed" : " natural");
  // The batch-vs-block choice is numerics-free by contract.
  const EinsumExecConfig blocks{.batch_parallel = 0};
  const EinsumExecConfig batch{.batch_parallel = 1};
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    for (const EinsumExecConfig* exec :
         {static_cast<const EinsumExecConfig*>(nullptr), &blocks, &batch}) {
      Tensor<T> out{out_shape};
      EinsumLowered(spec, want, a, b, out, 1.0f, 0.0f, exec);
      ASSERT_EQ(out.size(), baseline.size());
      EXPECT_EQ(std::memcmp(out.data(), baseline.data(),
                            sizeof(T) * static_cast<std::size_t>(out.size())),
                0)
          << spec_str << " threads=" << threads << " batch_parallel="
          << (exec == nullptr ? -1 : exec->batch_parallel)
          << (reversed ? " reversed" : " natural");
    }
  }
}

template <typename T>
void SweepShapesBitwise(bool reversed) {
  constexpr auto kGemm = EinsumClass::kGemm;
  constexpr auto kBatched = EinsumClass::kBatchedGemm;
  // Matrix x vector, n side degenerate two ways: no n dims at all, and n
  // extent 1.
  ExpectShapeBitwiseStable<T>("mk,k->m", {{'m', 70}, {'k', 33}}, kGemm,
                              reversed);
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 70}, {'k', 33}, {'n', 1}},
                              kGemm, reversed);
  // Vector x matrix (m side degenerate).
  ExpectShapeBitwiseStable<T>("k,kn->n", {{'k', 33}, {'n', 70}}, kGemm,
                              reversed);
  // Batched matrix x vector (empty batch covered by every other spec).
  ExpectShapeBitwiseStable<T>("bmk,bk->bm", {{'b', 5}, {'m', 40}, {'k', 17}},
                              kBatched, reversed);
  // Outer product (k == 1 two ways).
  ExpectShapeBitwiseStable<T>("m,n->mn", {{'m', 40}, {'n', 23}}, kGemm,
                              reversed);
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 40}, {'k', 1}, {'n', 23}},
                              kGemm, reversed);
  // Dot product (m == n == 1) and its batched form.
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 1}, {'k', 501}, {'n', 1}},
                              kGemm, reversed);
  ExpectShapeBitwiseStable<T>("bk,bk->b", {{'b', 6}, {'k', 91}}, kBatched,
                              reversed);
  // Scaled copy (k == 1 and one free side), both orientations plus the
  // single element.
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 120}, {'k', 1}, {'n', 1}},
                              kGemm, reversed);
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 1}, {'k', 1}, {'n', 120}},
                              kGemm, reversed);
  ExpectShapeBitwiseStable<T>("mk,kn->mn", {{'m', 1}, {'k', 1}, {'n', 1}},
                              kGemm, reversed);
}

TEST(EinsumBitwise, FloatNaturalLayouts) { SweepShapesBitwise<float>(false); }
TEST(EinsumBitwise, FloatReversedLayouts) { SweepShapesBitwise<float>(true); }
TEST(EinsumBitwise, HalfNaturalLayouts) { SweepShapesBitwise<Half>(false); }
TEST(EinsumBitwise, HalfReversedLayouts) { SweepShapesBitwise<Half>(true); }

TEST(EinsumErrors, RejectOutputFreeDimsThatDoNotMatchTheOperands) {
  // The output's m and n dims are indexed with the operands' extents, so
  // an `out` that is too short or names another dim used to be written
  // past its end or filled with wrong values, silently.
  auto spec = EinsumSpec::Parse("mk,kn->mn");
  auto a = TensorF::Random(Shape("mk", {4, 8}), 1);
  auto b = TensorF::Random(Shape("kn", {8, 8}), 2);
  const Shape bad_outs[] = {Shape("mn", {2, 8}), Shape("mn", {4, 4}),
                            Shape("xn", {4, 8}), Shape("my", {4, 8})};
  for (const Shape& shape : bad_outs) {
    TensorF out(shape);
    try {
      EinsumInto<float>(spec, a, b, out);
      FAIL() << "expected InvalidArgument for out=" << ToString(shape);
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("mk,kn->mn"), std::string::npos) << what;
      EXPECT_NE(what.find("a=[m:4,k:8]"), std::string::npos) << what;
      EXPECT_NE(what.find("b=[k:8,n:8]"), std::string::npos) << what;
      EXPECT_NE(what.find("out=["), std::string::npos) << what;
    }
  }
  // Any memory order of the right dims is accepted.
  TensorF transposed(Shape("nm", {8, 4}));
  EXPECT_NO_THROW(EinsumInto<float>(spec, a, b, transposed));
}

}  // namespace
}  // namespace xflow
