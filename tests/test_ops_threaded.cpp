// Bitwise thread-count determinism of the parallel ops layer: every
// memory-bound kernel (softmax, layernorm, dropout, elementwise, and the
// fused operators) runs rows on the pool and cross-row reductions through
// the fixed-chunk combine, so outputs and gradients must be identical --
// not merely close -- at 1, 2 and 8 threads, across layouts and dtypes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "ops/elementwise.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "test_util.hpp"

namespace xflow {
namespace {

using testutil::BitwiseSame;

class OpsThreadedDeterminism : public ::testing::Test {
 protected:
  ~OpsThreadedDeterminism() override {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

/// Runs `kernel` (which writes its outputs afresh each call) at 1 thread,
/// then re-runs at 2 and 8 and checks every listed output bitwise.
template <typename Kernel, typename Check>
void ExpectThreadInvariant(Kernel&& kernel, Check&& check) {
  ThreadPool::SetGlobalThreads(1);
  kernel();
  const auto snapshot = check();  // captures the 1-thread outputs
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    kernel();
    snapshot(threads);
  }
}

// ------------------------------------------------------------- softmax

template <typename T>
void SoftmaxFamilyCase(const char* layout) {
  const Shape shape(Shape("hbjk", {3, 2, 9, 33}).Permuted(layout));
  auto x = Tensor<T>::Random(shape, 1);
  DropoutMask mask(17, 0.2f);
  Tensor<T> y(shape), alpha(shape), m(shape), saved(shape), dx(shape),
      dbeta(shape);
  auto dy = Tensor<T>::Random(shape, 2);

  ExpectThreadInvariant(
      [&] {
        ops::SoftmaxForward(x, 'k', y);
        ops::ScaledSoftmaxForward(x, 'k', 0.125f, mask, alpha, m, saved);
        ops::SoftmaxBackwardDX(dy, y, 'k', dx);
        ops::ScaledSoftmaxBackwardDX(dy, m, saved, 'k', 0.125f, mask.Scale(),
                                     dbeta);
      },
      [&] {
        auto y1 = y, a1 = alpha, m1 = m, s1 = saved, dx1 = dx, db1 = dbeta;
        return [&, y1, a1, m1, s1, dx1, db1](int threads) {
          EXPECT_TRUE(BitwiseSame(y1, y)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(a1, alpha)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(m1, m)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(s1, saved)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(dx1, dx)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(db1, dbeta)) << layout << " t=" << threads;
        };
      });
}

TEST_F(OpsThreadedDeterminism, SoftmaxFamilyHalf) {
  SoftmaxFamilyCase<Half>("hbjk");
  SoftmaxFamilyCase<Half>("kjbh");
}

TEST_F(OpsThreadedDeterminism, SoftmaxFamilyFloat) {
  SoftmaxFamilyCase<float>("hbjk");
  SoftmaxFamilyCase<float>("bkhj");
}

TEST_F(OpsThreadedDeterminism, CausalSoftmax) {
  const Shape shape("hbjk", {2, 2, 16, 16});
  auto x = TensorH::Random(shape, 3);
  DropoutMask mask(19, 0.1f);
  TensorH alpha(shape), m(shape), saved(shape);
  ExpectThreadInvariant(
      [&] {
        ops::CausalScaledSoftmaxForward(x, 'k', 'j', 0.25f, mask, alpha, m,
                                        saved);
      },
      [&] {
        auto a1 = alpha, m1 = m, s1 = saved;
        return [&, a1, m1, s1](int threads) {
          EXPECT_TRUE(BitwiseSame(a1, alpha)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(m1, m)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(s1, saved)) << "t=" << threads;
        };
      });
}

// ----------------------------------------------------------- layernorm

template <typename T>
void LayerNormCase(const char* layout) {
  const Shape shape(Shape("ibj", {40, 6, 10}).Permuted(layout));
  const Shape stat("bj", {6, 10});
  auto x = Tensor<T>::Random(shape, 4);
  auto gamma = Tensor<T>::Random(Shape("i", {40}), 5);
  auto beta = Tensor<T>::Random(Shape("i", {40}), 6);
  auto dy = Tensor<T>::Random(shape, 7);
  Tensor<T> y(shape), dx(shape);
  Tensor<T> dgamma(Shape("i", {40})), dbeta(Shape("i", {40}));
  TensorF mean(stat), rstd(stat);

  ExpectThreadInvariant(
      [&] {
        ops::LayerNormForward(x, gamma, beta, 'i', 1e-5f, y, mean, rstd);
        ops::LayerNormBackwardDX(dy, gamma, x, mean, rstd, 'i', dx);
        ops::LayerNormBackwardDW(dy, x, mean, rstd, 'i', dgamma, dbeta);
      },
      [&] {
        auto y1 = y, dx1 = dx, dg1 = dgamma, db1 = dbeta;
        auto mean1 = mean, rstd1 = rstd;
        return [&, y1, dx1, dg1, db1, mean1, rstd1](int threads) {
          EXPECT_TRUE(BitwiseSame(y1, y)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(mean1, mean)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(rstd1, rstd)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(dx1, dx)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(dg1, dgamma)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(db1, dbeta)) << layout << " t=" << threads;
        };
      });
}

TEST_F(OpsThreadedDeterminism, LayerNormHalf) {
  LayerNormCase<Half>("ibj");
  LayerNormCase<Half>("bji");
}

TEST_F(OpsThreadedDeterminism, LayerNormFloat) {
  LayerNormCase<float>("ibj");
  LayerNormCase<float>("jib");
}

// ------------------------------------------------- elementwise / dropout

template <typename T>
void ElementwiseCase(const char* layout) {
  const Shape shape(Shape("ibj", {33, 5, 7}).Permuted(layout));
  auto x = Tensor<T>::Random(shape, 8);
  auto r = Tensor<T>::Random(shape, 9);
  auto bias = Tensor<T>::Random(Shape("i", {33}), 10);
  DropoutMask mask(23, 0.3f);
  Tensor<T> biased(shape), relu(shape), drop(shape), m(shape), sum(shape),
      scaled(shape), ddx(shape), rdx(shape);
  Tensor<T> db(Shape("i", {33}));

  ExpectThreadInvariant(
      [&] {
        ops::BiasForward(x, bias, biased);
        ops::ReluForward(biased, relu);
        ops::DropoutForward(relu, mask, drop, m);
        ops::ResidualForward(drop, r, sum);
        ops::ScaleForward(sum, 0.125f, scaled);
        ops::BiasBackwardDW(scaled, db);
        ops::DropoutBackwardDX(scaled, m, mask.Scale(), ddx);
        ops::ReluBackwardDX(ddx, relu, rdx);
      },
      [&] {
        auto b1 = biased, rl1 = relu, d1 = drop, m1 = m, s1 = sum,
             sc1 = scaled, ddx1 = ddx, rdx1 = rdx, db1 = db;
        return [&, b1, rl1, d1, m1, s1, sc1, ddx1, rdx1, db1](int threads) {
          EXPECT_TRUE(BitwiseSame(b1, biased)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(rl1, relu)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(d1, drop)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(m1, m)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(s1, sum)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(sc1, scaled)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(ddx1, ddx)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(rdx1, rdx)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(db1, db)) << layout << " t=" << threads;
        };
      });
}

TEST_F(OpsThreadedDeterminism, ElementwiseAndDropoutHalf) {
  ElementwiseCase<Half>("ibj");
  ElementwiseCase<Half>("jbi");
}

TEST_F(OpsThreadedDeterminism, ElementwiseAndDropoutFloat) {
  ElementwiseCase<float>("ibj");
  ElementwiseCase<float>("bij");
}

// Dropout must also stay layout-independent when threaded: the canonical
// mask indexing may not interact with row partitioning.
TEST_F(OpsThreadedDeterminism, DropoutLayoutIndependentAt8Threads) {
  ThreadPool::SetGlobalThreads(8);
  auto x = TensorH::Random(Shape("ibj", {32, 4, 6}), 11);
  DropoutMask mask(29, 0.4f);
  TensorH y1(x.shape()), m1(x.shape());
  ops::DropoutForward(x, mask, y1, m1);
  auto xp = x.Permuted("bji");
  TensorH y2(xp.shape()), m2(xp.shape());
  ops::DropoutForward(xp, mask, y2, m2);
  EXPECT_EQ(MaxAbsDiff(y1, y2), 0.0);
  EXPECT_EQ(MaxAbsDiff(m1, m2), 0.0);
}

// ----------------------------------------------------------- fused ops

template <typename T>
void FusedForwardCase(const char* layout) {
  const Shape shape(Shape("ibj", {24, 4, 9}).Permuted(layout));
  const Shape stat("bj", {4, 9});
  auto x = Tensor<T>::Random(shape, 12);
  auto resid_in = Tensor<T>::Random(shape, 13);
  auto bias = Tensor<T>::Random(Shape("i", {24}), 14);
  auto gamma = Tensor<T>::Random(Shape("i", {24}), 15);
  auto beta = Tensor<T>::Random(Shape("i", {24}), 16);
  DropoutMask mask(31, 0.25f);
  Tensor<T> relu(shape), brd_y(shape), brd_m(shape);
  Tensor<T> resid(shape), m(shape), y(shape);
  TensorF mean(stat), rstd(stat);

  ExpectThreadInvariant(
      [&] {
        ops::BiasReluDropout(x, bias, mask, relu, brd_y, brd_m);
        ops::BiasDropoutResidualLayerNorm(x, bias, resid_in, mask, gamma,
                                          beta, 'i', 1e-5f, resid, m, y, mean,
                                          rstd);
      },
      [&] {
        auto r1 = relu, by1 = brd_y, bm1 = brd_m, re1 = resid, m1 = m, y1 = y;
        auto mean1 = mean, rstd1 = rstd;
        return [&, r1, by1, bm1, re1, m1, y1, mean1, rstd1](int threads) {
          EXPECT_TRUE(BitwiseSame(r1, relu)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(by1, brd_y)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(bm1, brd_m)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(re1, resid)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(m1, m)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(y1, y)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(mean1, mean)) << layout << " t=" << threads;
          EXPECT_TRUE(BitwiseSame(rstd1, rstd)) << layout << " t=" << threads;
        };
      });
}

TEST_F(OpsThreadedDeterminism, FusedForwardHalf) {
  FusedForwardCase<Half>("ibj");
  FusedForwardCase<Half>("bji");
}

TEST_F(OpsThreadedDeterminism, FusedForwardFloat) { FusedForwardCase<float>("ibj"); }

template <typename T>
void FusedBackwardCase() {
  const Shape ibj("ibj", {18, 4, 8});
  const Shape ubj("ubj", {30, 4, 8});
  const Shape stat("bj", {4, 8});
  auto dy = Tensor<T>::Random(ibj, 17);
  auto dy_lo = Tensor<T>::Random(ubj, 18);
  auto gamma = Tensor<T>::Random(Shape("i", {18}), 19);
  auto x = Tensor<T>::Random(ibj, 20);
  auto da = Tensor<T>::Random(ibj, 21);
  auto db2 = Tensor<T>::Random(ibj, 22);
  auto relu_saved = Tensor<T>::Random(ubj, 23);
  DropoutMask mask(37, 0.35f);
  Tensor<T> dummy(ibj), drop_mask(ibj), dummy_lo(ubj), drop_mask_lo(ubj);
  ops::DropoutForward(x, mask, dummy, drop_mask);
  ops::DropoutForward(relu_saved, mask, dummy_lo, drop_mask_lo);
  auto beta = Tensor<T>::Random(Shape("i", {18}), 24);
  Tensor<T> y(ibj);
  TensorF mean(stat), rstd(stat);
  ops::LayerNormForward(x, gamma, beta, 'i', 1e-5f, y, mean, rstd);

  Tensor<T> d_resid(ibj), d_out(ibj);
  Tensor<T> d_b_hi(Shape("i", {18})), d_x(ubj), d_b_lo(Shape("u", {30}));
  Tensor<T> d_sum(ibj), dgamma(Shape("i", {18})), dbeta(Shape("i", {18}));

  ExpectThreadInvariant(
      [&] {
        ops::LayerNormDropoutBackward(dy, gamma, x, mean, rstd, drop_mask,
                                      'i', mask.Scale(), d_resid, d_out);
        ops::BiasDropoutReluBiasBackward(dy, dy_lo, drop_mask_lo, relu_saved,
                                         mask.Scale(), d_b_hi, d_x, d_b_lo);
        ops::ResidualLayerNormDwBackward(da, db2, x, mean, rstd, 'i', d_sum,
                                         dgamma, dbeta);
      },
      [&] {
        auto dr1 = d_resid, do1 = d_out, dbh1 = d_b_hi, dx1 = d_x,
             dbl1 = d_b_lo, ds1 = d_sum, dg1 = dgamma, dbt1 = dbeta;
        return [&, dr1, do1, dbh1, dx1, dbl1, ds1, dg1, dbt1](int threads) {
          EXPECT_TRUE(BitwiseSame(dr1, d_resid)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(do1, d_out)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(dbh1, d_b_hi)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(dx1, d_x)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(dbl1, d_b_lo)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(ds1, d_sum)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(dg1, dgamma)) << "t=" << threads;
          EXPECT_TRUE(BitwiseSame(dbt1, dbeta)) << "t=" << threads;
        };
      });
}

TEST_F(OpsThreadedDeterminism, FusedBackwardHalf) { FusedBackwardCase<Half>(); }

TEST_F(OpsThreadedDeterminism, FusedBackwardFloat) {
  FusedBackwardCase<float>();
}

// ----------------------- strided (staged) vs contiguous, bitwise

// The transpose-on-the-fly path stages strided rows through per-thread
// scratch tiles but runs the *same* body instantiation as the contiguous
// fast path, so a kernel must produce bitwise-identical values on every
// layout -- at every thread count. Extents are chosen to exercise partial
// tiles (rows not a multiple of the tile height) and multiple gather
// column blocks (innermost extent > 64).

/// Bitwise comparison of `t` against `ref` after canonicalizing `t` to
/// ref's dimension order (a pure copy -- Permuted reorders elements).
template <typename T>
::testing::AssertionResult SameCanonical(const Tensor<T>& ref,
                                         const Tensor<T>& t) {
  return BitwiseSame(ref, t.Permuted(ref.dim_order()));
}

template <typename T>
void StridedLayerNormMatchesContiguous(const char* strided_layout) {
  const Shape contig("bji", {5, 27, 130});  // i innermost, n = 130
  const Shape stat("bj", {5, 27});
  auto x = Tensor<T>::Random(contig, 41);
  auto gamma = Tensor<T>::Random(Shape("i", {130}), 42);
  auto beta = Tensor<T>::Random(Shape("i", {130}), 43);
  auto dy = Tensor<T>::Random(contig, 44);
  Tensor<T> y(contig), dx(contig);
  Tensor<T> dgamma(Shape("i", {130})), dbeta(Shape("i", {130}));
  TensorF mean(stat), rstd(stat);
  ThreadPool::SetGlobalThreads(1);
  ops::LayerNormForward(x, gamma, beta, 'i', 1e-5f, y, mean, rstd);
  ops::LayerNormBackwardDX(dy, gamma, x, mean, rstd, 'i', dx);
  ops::LayerNormBackwardDW(dy, x, mean, rstd, 'i', dgamma, dbeta);

  const auto xs = x.Permuted(strided_layout);
  const auto dys = dy.Permuted(strided_layout);
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    Tensor<T> ys(xs.shape()), dxs(xs.shape());
    Tensor<T> dgs(Shape("i", {130})), dbs(Shape("i", {130}));
    TensorF means(stat), rstds(stat);
    ops::LayerNormForward(xs, gamma, beta, 'i', 1e-5f, ys, means, rstds);
    ops::LayerNormBackwardDX(dys, gamma, xs, means, rstds, 'i', dxs);
    ops::LayerNormBackwardDW(dys, xs, means, rstds, 'i', dgs, dbs);
    EXPECT_TRUE(SameCanonical(y, ys)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(BitwiseSame(mean, means)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(BitwiseSame(rstd, rstds)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(dx, dxs)) << strided_layout << " t=" << threads;
    // Cross-row reductions fold rows in the output's memory order, so a
    // layout change regroups the fp32 sums: dgamma/dbeta are equal to
    // rounding (they stay bitwise stable across thread counts and between
    // fused/unfused on any *fixed* layout -- covered above).
    EXPECT_LT(MaxAbsDiff(dgamma, dgs), 1e-4)
        << strided_layout << " t=" << threads;
    EXPECT_LT(MaxAbsDiff(dbeta, dbs), 1e-4)
        << strided_layout << " t=" << threads;
  }
}

TEST_F(OpsThreadedDeterminism, StridedLayerNormBitwiseHalf) {
  StridedLayerNormMatchesContiguous<Half>("ijb");
  StridedLayerNormMatchesContiguous<Half>("jib");
}

TEST_F(OpsThreadedDeterminism, StridedLayerNormBitwiseFloat) {
  StridedLayerNormMatchesContiguous<float>("ijb");
}

template <typename T>
void StridedSoftmaxMatchesContiguous(const char* strided_layout) {
  const Shape contig("hbjk", {2, 3, 9, 70});  // k innermost
  auto x = Tensor<T>::Random(contig, 51);
  auto dy = Tensor<T>::Random(contig, 52);
  DropoutMask mask(53, 0.2f);
  Tensor<T> y(contig), alpha(contig), m(contig), saved(contig), dx(contig),
      dbeta(contig);
  ThreadPool::SetGlobalThreads(1);
  ops::SoftmaxForward(x, 'k', y);
  ops::ScaledSoftmaxForward(x, 'k', 0.125f, mask, alpha, m, saved);
  ops::SoftmaxBackwardDX(dy, y, 'k', dx);
  ops::ScaledSoftmaxBackwardDX(dy, m, saved, 'k', 0.125f, mask.Scale(),
                               dbeta);

  const auto xs = x.Permuted(strided_layout);
  const auto dys = dy.Permuted(strided_layout);
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    Tensor<T> ys(xs.shape()), as(xs.shape()), ms(xs.shape()),
        ss(xs.shape()), dxs(xs.shape()), dbs(xs.shape());
    ops::SoftmaxForward(xs, 'k', ys);
    ops::ScaledSoftmaxForward(xs, 'k', 0.125f, mask, as, ms, ss);
    ops::SoftmaxBackwardDX(dys, ys, 'k', dxs);
    ops::ScaledSoftmaxBackwardDX(dys, ms, ss, 'k', 0.125f, mask.Scale(),
                                 dbs);
    EXPECT_TRUE(SameCanonical(y, ys)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(alpha, as)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(m, ms)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(saved, ss)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(dx, dxs)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(dbeta, dbs)) << strided_layout << " t=" << threads;
  }
}

TEST_F(OpsThreadedDeterminism, StridedSoftmaxBitwiseHalf) {
  StridedSoftmaxMatchesContiguous<Half>("kjbh");
}

TEST_F(OpsThreadedDeterminism, StridedSoftmaxBitwiseFloat) {
  StridedSoftmaxMatchesContiguous<float>("kbhj");
}

template <typename T>
void StridedFusedMatchesContiguous(const char* strided_layout) {
  const Shape contig("bji", {4, 9, 96});  // i innermost
  const Shape stat("bj", {4, 9});
  auto x = Tensor<T>::Random(contig, 61);
  auto resid_in = Tensor<T>::Random(contig, 62);
  auto bias = Tensor<T>::Random(Shape("i", {96}), 63);
  auto gamma = Tensor<T>::Random(Shape("i", {96}), 64);
  auto beta = Tensor<T>::Random(Shape("i", {96}), 65);
  DropoutMask mask(67, 0.25f);
  Tensor<T> relu(contig), brd_y(contig), brd_m(contig);
  Tensor<T> resid(contig), m(contig), y(contig);
  TensorF mean(stat), rstd(stat);
  ThreadPool::SetGlobalThreads(1);
  ops::BiasReluDropout(x, bias, mask, relu, brd_y, brd_m);
  ops::BiasDropoutResidualLayerNorm(x, bias, resid_in, mask, gamma, beta,
                                    'i', 1e-5f, resid, m, y, mean, rstd);

  const auto xs = x.Permuted(strided_layout);
  const auto rins = resid_in.Permuted(strided_layout);
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    Tensor<T> relus(xs.shape()), brd_ys(xs.shape()), brd_ms(xs.shape());
    Tensor<T> resids(xs.shape()), ms(xs.shape()), ys(xs.shape());
    TensorF means(stat), rstds(stat);
    ops::BiasReluDropout(xs, bias, mask, relus, brd_ys, brd_ms);
    ops::BiasDropoutResidualLayerNorm(xs, bias, rins, mask, gamma, beta, 'i',
                                      1e-5f, resids, ms, ys, means, rstds);
    EXPECT_TRUE(SameCanonical(relu, relus)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(brd_y, brd_ys)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(brd_m, brd_ms)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(resid, resids)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(m, ms)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(SameCanonical(y, ys)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(BitwiseSame(mean, means)) << strided_layout << " t=" << threads;
    EXPECT_TRUE(BitwiseSame(rstd, rstds)) << strided_layout << " t=" << threads;
  }
}

TEST_F(OpsThreadedDeterminism, StridedFusedBitwiseHalf) {
  StridedFusedMatchesContiguous<Half>("ijb");
}

TEST_F(OpsThreadedDeterminism, StridedFusedBitwiseFloat) {
  StridedFusedMatchesContiguous<float>("ibj");
}

}  // namespace
}  // namespace xflow
