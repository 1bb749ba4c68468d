// The paper's fused kernels must be numerically identical to the unfused
// operator pipelines they replace -- fusion changes data movement, not math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ops/elementwise.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "test_util.hpp"

namespace xflow::ops {
namespace {

using testutil::BitwiseSame;
using testutil::ThreadGuard;

constexpr float kEps = 1e-5f;

TEST(FusedBRD, MatchesBiasReluDropoutPipeline) {
  const Shape ubj("ubj", {8, 2, 6});
  auto x = TensorH::Random(ubj, 5);
  auto bias = TensorH::Random(Shape("u", {8}), 6);
  DropoutMask mask(123, 0.3f);

  TensorH biased(ubj), relu_ref(ubj), y_ref(ubj), m_ref(ubj);
  BiasForward(x, bias, biased);
  ReluForward(biased, relu_ref);
  DropoutForward(relu_ref, mask, y_ref, m_ref);

  TensorH relu_f(ubj), y_f(ubj), m_f(ubj);
  BiasReluDropout(x, bias, mask, relu_f, y_f, m_f);
  EXPECT_EQ(MaxAbsDiff(relu_ref, relu_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(y_ref, y_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(m_ref, m_f), 0.0);
}

TEST(FusedBDRLN, MatchesFourOperatorPipeline) {
  const Shape ibj("ibj", {16, 2, 4});
  auto x = TensorH::Random(ibj, 7);
  auto bias = TensorH::Random(Shape("i", {16}), 8);
  auto resid_in = TensorH::Random(ibj, 9);
  auto gamma = TensorH::Random(Shape("i", {16}), 10);
  auto beta = TensorH::Random(Shape("i", {16}), 11);
  DropoutMask mask(321, 0.25f);

  // Unfused pipeline: bias -> dropout -> residual -> layernorm.
  TensorH biased(ibj), dropped(ibj), m_ref(ibj), resid_ref(ibj), y_ref(ibj);
  TensorF mean_ref(Shape("bj", {2, 4})), rstd_ref(Shape("bj", {2, 4}));
  BiasForward(x, bias, biased);
  DropoutForward(biased, mask, dropped, m_ref);
  ResidualForward(dropped, resid_in, resid_ref);
  LayerNormForward(resid_ref, gamma, beta, 'i', kEps, y_ref, mean_ref,
                   rstd_ref);

  TensorH resid_f(ibj), m_f(ibj), y_f(ibj);
  TensorF mean_f(Shape("bj", {2, 4})), rstd_f(Shape("bj", {2, 4}));
  BiasDropoutResidualLayerNorm(x, bias, resid_in, mask, gamma, beta, 'i',
                               kEps, resid_f, m_f, y_f, mean_f, rstd_f);
  EXPECT_EQ(MaxAbsDiff(resid_ref, resid_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(m_ref, m_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(y_ref, y_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(mean_ref, mean_f), 0.0);
}

TEST(FusedBLNRD, MatchesLayerNormDxThenDropoutDx) {
  const Shape ibj("ibj", {12, 2, 3});
  auto dy = TensorH::Random(ibj, 12);
  auto gamma = TensorH::Random(Shape("i", {12}), 13);
  auto x = TensorH::Random(ibj, 14);
  DropoutMask mask(55, 0.4f);

  // Forward pieces needed by backward.
  auto beta = TensorH::Random(Shape("i", {12}), 15);
  TensorH y(ibj);
  TensorF mean(Shape("bj", {2, 3})), rstd(Shape("bj", {2, 3}));
  LayerNormForward(x, gamma, beta, 'i', kEps, y, mean, rstd);
  TensorH dummy(ibj), drop_mask(ibj);
  DropoutForward(x, mask, dummy, drop_mask);

  TensorH d_resid_ref(ibj), d_out_ref(ibj);
  LayerNormBackwardDX(dy, gamma, x, mean, rstd, 'i', d_resid_ref);
  DropoutBackwardDX(d_resid_ref, drop_mask, mask.Scale(), d_out_ref);

  TensorH d_resid_f(ibj), d_out_f(ibj);
  LayerNormDropoutBackward(dy, gamma, x, mean, rstd, drop_mask, 'i',
                           mask.Scale(), d_resid_f, d_out_f);
  EXPECT_EQ(MaxAbsDiff(d_resid_ref, d_resid_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(d_out_ref, d_out_f), 0.0);
}

TEST(FusedBDRB, MatchesFourOperatorBackwardPipeline) {
  const Shape ibj("ibj", {6, 2, 4});
  const Shape ubj("ubj", {10, 2, 4});
  auto dy_hi = TensorH::Random(ibj, 16);
  auto dy_lo = TensorH::Random(ubj, 17);
  auto relu_saved = TensorH::Random(ubj, 18);
  DropoutMask mask(77, 0.35f);
  TensorH dummy(ubj), drop_mask(ubj);
  DropoutForward(relu_saved, mask, dummy, drop_mask);

  TensorH d_b_hi_ref(Shape("i", {6}));
  BiasBackwardDW(dy_hi, d_b_hi_ref);
  TensorH d_drop(ubj), d_x_ref(ubj), d_b_lo_ref(Shape("u", {10}));
  DropoutBackwardDX(dy_lo, drop_mask, mask.Scale(), d_drop);
  ReluBackwardDX(d_drop, relu_saved, d_x_ref);
  BiasBackwardDW(d_x_ref, d_b_lo_ref);

  TensorH d_b_hi_f(Shape("i", {6})), d_x_f(ubj), d_b_lo_f(Shape("u", {10}));
  BiasDropoutReluBiasBackward(dy_hi, dy_lo, drop_mask, relu_saved,
                              mask.Scale(), d_b_hi_f, d_x_f, d_b_lo_f);
  EXPECT_EQ(MaxAbsDiff(d_b_hi_ref, d_b_hi_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(d_x_ref, d_x_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(d_b_lo_ref, d_b_lo_f), 0.0);
}

/// The serial bias fold the kernels replaced, written out: dy's rows are
/// its outer dims in memory order and a row is its innermost dim. The rows
/// split into min(rows, 64) fixed chunks; each chunk adds its elements in
/// memory order into a zeroed fp32 partial, and the partials add into the
/// gradient in chunk order, which is rounded once.
template <typename T>
void SerialBiasFold(const Tensor<T>& dy, Tensor<T>& db) {
  const auto& dims = dy.shape().dims();
  const std::int64_t n = dims.back().extent;
  const std::int64_t rows = dy.size() / n;
  const std::int64_t chunks = std::min<std::int64_t>(rows, 64);
  std::vector<float> acc(static_cast<std::size_t>(db.size()));
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    std::vector<float> part(acc.size());
    for (std::int64_t e = rows * ci / chunks * n;
         e < rows * (ci + 1) / chunks * n; ++e) {
      std::int64_t off = 0, rest = e;
      for (auto d = dims.rbegin(); d != dims.rend(); ++d) {
        if (db.shape().has(d->name)) {
          off += rest % d->extent * db.stride(d->name);
        }
        rest /= d->extent;
      }
      part[static_cast<std::size_t>(off)] += float(dy.data()[e]);
    }
    for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += part[k];
  }
  for (std::int64_t k = 0; k < db.size(); ++k) {
    db.data()[k] = T(acc[static_cast<std::size_t>(k)]);
  }
}

// [ubj] with the bias over u broadcasts along the innermost dim (the
// scalar chain); [bju] puts the bias dim innermost (the element-wise add).
// Rows of 300 cross the fold's 256-element conversion chunk, and
// 2 * 70 rows make the full 64 reduction chunks.
struct BiasFoldCase {
  Shape hi, lo;
};
const BiasFoldCase kBiasFoldCases[] = {
    {Shape("ibj", {7, 2, 300}), Shape("ubj", {10, 2, 300})},
    {Shape("bji", {2, 70, 300}), Shape("bju", {2, 70, 300})},
};

template <typename T>
void ExpectBiasFoldsMatchSerialFold(const BiasFoldCase& c) {
  const auto dy_hi = Tensor<T>::Random(c.hi, 40);
  const auto dy_lo = Tensor<T>::Random(c.lo, 41);
  const auto relu_saved = Tensor<T>::Random(c.lo, 42);
  const DropoutMask mask(43, 0.35f);
  Tensor<T> dummy(c.lo), drop_mask(c.lo);
  DropoutForward(relu_saved, mask, dummy, drop_mask);
  const float keep_scale = mask.Scale();
  const Shape i_shape("i", {c.hi.extent('i')});
  const Shape u_shape("u", {c.lo.extent('u')});

  // The unfused dX, element by element, then the serial folds.
  Tensor<T> d_x_ref(c.lo);
  for (std::int64_t e = 0; e < d_x_ref.size(); ++e) {
    const float dd = float(T(float(dy_lo.data()[e]) *
                             float(drop_mask.data()[e]) * keep_scale));
    d_x_ref.data()[e] =
        float(relu_saved.data()[e]) > 0.0f ? T(dd) : T(0.0f);
  }
  Tensor<T> d_b_hi_ref(i_shape), d_b_lo_ref(u_shape);
  SerialBiasFold(dy_hi, d_b_hi_ref);
  SerialBiasFold(d_x_ref, d_b_lo_ref);

  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message()
                 << ToString(c.lo) << ", " << threads << " threads");
    ThreadGuard guard(threads);
    Tensor<T> d_b_hi(i_shape), d_b_lo(u_shape);
    BiasBackwardDW(dy_hi, d_b_hi);
    BiasBackwardDW(d_x_ref, d_b_lo);
    EXPECT_TRUE(BitwiseSame(d_b_hi_ref, d_b_hi));
    EXPECT_TRUE(BitwiseSame(d_b_lo_ref, d_b_lo));

    Tensor<T> d_b_hi_f(i_shape), d_x_f(c.lo), d_b_lo_f(u_shape);
    BiasDropoutReluBiasBackward(dy_hi, dy_lo, drop_mask, relu_saved,
                                keep_scale, d_b_hi_f, d_x_f, d_b_lo_f);
    EXPECT_TRUE(BitwiseSame(d_b_hi_ref, d_b_hi_f));
    EXPECT_TRUE(BitwiseSame(d_x_ref, d_x_f));
    EXPECT_TRUE(BitwiseSame(d_b_lo_ref, d_b_lo_f));
  }
}

TEST(BiasFolds, MatchSerialFoldBitwise) {
  for (const auto& c : kBiasFoldCases) {
    ExpectBiasFoldsMatchSerialFold<Half>(c);
    ExpectBiasFoldsMatchSerialFold<float>(c);
  }
}

TEST(FusedEBSB, MatchesResidualThenLayerNormDw) {
  const Shape ibj("ibj", {10, 2, 3});
  auto da = TensorH::Random(ibj, 19);
  auto db = TensorH::Random(ibj, 20);
  auto x = TensorH::Random(ibj, 21);
  auto gamma = TensorH::Random(Shape("i", {10}), 22);
  auto beta = TensorH::Random(Shape("i", {10}), 23);
  TensorH y(ibj);
  TensorF mean(Shape("bj", {2, 3})), rstd(Shape("bj", {2, 3}));
  LayerNormForward(x, gamma, beta, 'i', kEps, y, mean, rstd);

  TensorH d_sum_ref(ibj);
  ResidualForward(da, db, d_sum_ref);
  TensorH dgamma_ref(Shape("i", {10})), dbeta_ref(Shape("i", {10}));
  LayerNormBackwardDW(d_sum_ref, x, mean, rstd, 'i', dgamma_ref, dbeta_ref);

  TensorH d_sum_f(ibj), dgamma_f(Shape("i", {10})), dbeta_f(Shape("i", {10}));
  ResidualLayerNormDwBackward(da, db, x, mean, rstd, 'i', d_sum_f, dgamma_f,
                              dbeta_f);
  EXPECT_EQ(MaxAbsDiff(d_sum_ref, d_sum_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(dgamma_ref, dgamma_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(dbeta_ref, dbeta_f), 0.0);
}

// Fused kernels must also be layout-independent (the whole point of the
// paper's layout exploration is that layout is a free knob).
TEST(FusedKernels, BdrlnIsLayoutIndependent) {
  const Shape ibj("ibj", {8, 2, 4});
  auto x = TensorH::Random(ibj, 30);
  auto bias = TensorH::Random(Shape("i", {8}), 31);
  auto resid_in = TensorH::Random(ibj, 32);
  auto gamma = TensorH::Random(Shape("i", {8}), 33);
  auto beta = TensorH::Random(Shape("i", {8}), 34);
  DropoutMask mask(99, 0.2f);

  TensorH resid1(ibj), m1(ibj), y1(ibj);
  TensorF mean1(Shape("bj", {2, 4})), rstd1(Shape("bj", {2, 4}));
  BiasDropoutResidualLayerNorm(x, bias, resid_in, mask, gamma, beta, 'i',
                               kEps, resid1, m1, y1, mean1, rstd1);

  auto xp = x.Permuted("bji");
  auto rp = resid_in.Permuted("jbi");
  TensorH resid2(ibj.Permuted("bji")), m2(ibj.Permuted("bji")),
      y2(ibj.Permuted("jbi"));
  TensorF mean2(Shape("bj", {2, 4})), rstd2(Shape("bj", {2, 4}));
  BiasDropoutResidualLayerNorm(xp, bias, rp, mask, gamma, beta, 'i', kEps,
                               resid2, m2, y2, mean2, rstd2);
  EXPECT_EQ(MaxAbsDiff(y1, y2), 0.0);
  EXPECT_EQ(MaxAbsDiff(resid1, resid2), 0.0);
}

/// Expects mask_out to hold exactly mask.Keep(i) at every element's
/// canonical index i (its flat index in the alphabetically ordered,
/// row-major layout of the same dims).
void ExpectMaskIsKeepAtCanonicalIndex(const TensorH& mask_out,
                                      const DropoutMask& mask) {
  std::string canonical = mask_out.shape().names();
  std::sort(canonical.begin(), canonical.end());
  const TensorH m = mask_out.Permuted(canonical);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(float(m.data()[i]),
              mask.Keep(static_cast<std::uint64_t>(i)) ? 1.0f : 0.0f)
        << mask_out.shape().names() << " canonical index " << i;
  }
}

// The five mask-drawing kernels take their keep flags from block-batched
// Philox runs; every flag must still be the per-index reference at the
// element's canonical index. The shapes give rows longer than the
// kernels' 512-element mask chunk, row lengths and bases that are not
// multiples of 4, unit canonical strides and strided ones (BDRLN over i,
// BRD over j), and staged (strided-layout) rows.
TEST(MaskKernels, DrawKeepAtTheCanonicalIndex) {
  for (const float p : {0.0f, 0.3f, 1.0f}) {
    const DropoutMask mask(0xBEEF, p);
    for (const char* layout : {"ibj", "bji", "jib"}) {
      const auto x = TensorH::Random(Shape("ibj", {5, 2, 601}), 1)
                         .Permuted(layout);
      TensorH y(x.shape()), m(x.shape());
      DropoutForward(x, mask, y, m);
      ExpectMaskIsKeepAtCanonicalIndex(m, mask);
    }
    for (const char* layout : {"hbjk", "hbkj"}) {
      const auto beta =
          TensorH::Random(Shape("hbjk", {2, 1, 3, 701}), 2).Permuted(layout);
      TensorH alpha(beta.shape()), m(beta.shape()), saved(beta.shape());
      ScaledSoftmaxForward(beta, 'k', 0.5f, mask, alpha, m, saved);
      ExpectMaskIsKeepAtCanonicalIndex(m, mask);
      CausalScaledSoftmaxForward(beta, 'k', 'j', 0.5f, mask, alpha, m, saved);
      ExpectMaskIsKeepAtCanonicalIndex(m, mask);
    }
    const Shape ubj("ubj", {5, 2, 601});
    const auto x = TensorH::Random(ubj, 3);
    const auto bias = TensorH::Random(Shape("u", {5}), 4);
    TensorH relu(ubj), y(ubj), m(ubj);
    BiasReluDropout(x, bias, mask, relu, y, m);
    ExpectMaskIsKeepAtCanonicalIndex(m, mask);

    const Shape ibj("ibj", {603, 2, 3});
    const auto xi = TensorH::Random(ibj, 5);
    const auto bi = TensorH::Random(Shape("i", {603}), 6);
    const auto resid_in = TensorH::Random(ibj, 7);
    const auto gamma = TensorH::Random(Shape("i", {603}), 8);
    const auto beta = TensorH::Random(Shape("i", {603}), 9);
    TensorH resid(ibj), mi(ibj), yi(ibj);
    TensorF mean(Shape("bj", {2, 3})), rstd(Shape("bj", {2, 3}));
    BiasDropoutResidualLayerNorm(xi, bi, resid_in, mask, gamma, beta, 'i',
                                 kEps, resid, mi, yi, mean, rstd);
    ExpectMaskIsKeepAtCanonicalIndex(mi, mask);
  }
}

}  // namespace
}  // namespace xflow::ops
