// The paper's fused kernels must be numerically identical to the unfused
// operator pipelines they replace -- fusion changes data movement, not math.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ops/elementwise.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"

namespace xflow::ops {
namespace {

constexpr float kEps = 1e-5f;

TEST(FusedAIB, MatchesThreeSeparateBiasKernels) {
  const Shape proj("phbj", {4, 2, 3, 5});
  auto qq = TensorH::Random(proj, 1);
  auto kk = TensorH::Random(proj, 2);
  auto vv = TensorH::Random(proj, 3);
  auto bias = TensorH::Random(Shape("ph", {12, 2}), 4);  // stacked 3x4

  // Unfused: slice the stacked bias, then three bias kernels.
  TensorH q_ref(proj), k_ref(proj), v_ref(proj);
  BiasForward(qq, bias.SliceDim('p', 0, 4), q_ref);
  BiasForward(kk, bias.SliceDim('p', 4, 4), k_ref);
  BiasForward(vv, bias.SliceDim('p', 8, 4), v_ref);

  TensorH q_f(proj), k_f(proj), v_f(proj);
  AttnInputBias<Half>({&qq, &kk, &vv}, bias, 'p', {&q_f, &k_f, &v_f});
  EXPECT_EQ(MaxAbsDiff(q_ref, q_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(k_ref, k_f), 0.0);
  EXPECT_EQ(MaxAbsDiff(v_ref, v_f), 0.0);
}

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

TEST(FusedBAIB, MatchesThreeBiasGradients) {
  const Shape proj("phbj", {4, 2, 3, 5});
  auto dq = TensorH::Random(proj, 24);
  auto dk = TensorH::Random(proj, 25);
  auto dv = TensorH::Random(proj, 26);

  TensorH ref_q(Shape("ph", {4, 2})), ref_k(Shape("ph", {4, 2})),
      ref_v(Shape("ph", {4, 2}));
  BiasBackwardDW(dq, ref_q);
  BiasBackwardDW(dk, ref_k);
  BiasBackwardDW(dv, ref_v);

  TensorH stacked(Shape("ph", {12, 2}));
  AttnInputBiasBackward<Half>({&dq, &dk, &dv}, 'p', stacked);
  EXPECT_EQ(MaxAbsDiff(ref_q, stacked.SliceDim('p', 0, 4)), 0.0);
  EXPECT_EQ(MaxAbsDiff(ref_k, stacked.SliceDim('p', 4, 4)), 0.0);
  EXPECT_EQ(MaxAbsDiff(ref_v, stacked.SliceDim('p', 8, 4)), 0.0);
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
