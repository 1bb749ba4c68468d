#include "transformer/encoder.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace xflow::transformer {
namespace {

using graph::ModelDims;

EncoderConfig TinyConfig(float dropout = 0.1f) {
  EncoderConfig c;
  c.dims = ModelDims::Tiny();
  c.dropout_prob = dropout;
  c.seed = 7;
  return c;
}

TensorH TinyInput(const ModelDims& d, std::uint64_t seed) {
  return TensorH::Random(Shape("ibj", {d.i, d.b, d.j}), seed);
}

TEST(Encoder, ForwardProducesLayerNormalizedOutput) {
  auto cfg = TinyConfig(0.0f);
  EncoderLayer layer(cfg, EncoderParams::Init(cfg.dims, 3));
  EncoderActivations acts;
  auto x = TinyInput(cfg.dims, 5);
  const auto& y = layer.Forward(x, acts);
  // Per (b, j) column: mean ~ 0, variance ~ 1 (final layernorm, scale=1).
  for (std::int64_t b = 0; b < cfg.dims.b; ++b) {
    for (std::int64_t j = 0; j < cfg.dims.j; ++j) {
      float sum = 0, sq = 0;
      for (std::int64_t i = 0; i < cfg.dims.i; ++i) {
        const float v = float(y.at({{'i', i}, {'b', b}, {'j', j}}));
        sum += v;
        sq += v * v;
      }
      const float n = static_cast<float>(cfg.dims.i);
      EXPECT_NEAR(sum / n, 0.0f, 0.01f);
      EXPECT_NEAR(sq / n, 1.0f, 0.05f);
    }
  }
}

TEST(Encoder, DropoutZeroMeansDeterministicIdentityMasks) {
  auto cfg = TinyConfig(0.0f);
  EncoderLayer layer(cfg, EncoderParams::Init(cfg.dims, 29));
  EncoderActivations acts;
  layer.Forward(TinyInput(cfg.dims, 31), acts);
  for (std::int64_t i = 0; i < acts.ff_drop_mask.size(); ++i) {
    EXPECT_EQ(float(acts.ff_drop_mask.data()[i]), 1.0f);
  }
}

TEST(Encoder, DifferentSeedsChangeDropout) {
  auto params = EncoderParams::Init(ModelDims::Tiny(), 37);
  auto cfg_a = TinyConfig();
  auto cfg_b = TinyConfig();
  cfg_b.seed = cfg_a.seed + 1;
  EncoderLayer a(cfg_a, params), b(cfg_b, params);
  EncoderActivations aa, ab;
  auto x = TinyInput(ModelDims::Tiny(), 41);
  a.Forward(x, aa);
  b.Forward(x, ab);
  EXPECT_GT(MaxAbsDiff(aa.ff_drop_mask, ab.ff_drop_mask), 0.0);
}

TEST(Encoder, RepeatedBackwardIntoReusedGradientsIsIdempotent) {
  // Gradient accumulators are reused across steps (EnsureShapes); a kernel
  // that accumulated instead of overwriting would drift on the second run.
  const auto cfg = TinyConfig();
  EncoderLayer layer(cfg, EncoderParams::Init(cfg.dims, 23));
  EncoderActivations acts;
  layer.Forward(TinyInput(cfg.dims, 29), acts);
  auto d_y = TinyInput(cfg.dims, 31);
  EncoderGradients reused, fresh;
  layer.Backward(d_y, acts, reused);
  layer.Backward(d_y, acts, reused);  // second run into the same buffers
  layer.Backward(d_y, acts, fresh);
  EXPECT_EQ(MaxAbsDiff(reused.d_x, fresh.d_x), 0.0);
  auto rn = reused.params.Named();
  auto fn = fresh.params.Named();
  for (std::size_t p = 0; p < rn.size(); ++p) {
    EXPECT_EQ(MaxAbsDiff(*rn[p].second, *fn[p].second), 0.0) << rn[p].first;
  }
}

// Gradient checks against finite differences (fp32, dropout off).
class EncoderGradCheck : public ::testing::Test {
 protected:
  EncoderGradCheck() {
    cfg_.dims = ModelDims::Tiny();
    cfg_.dropout_prob = 0.0f;
    params_ = EncoderParamsT<float>::Init(cfg_.dims, 43);
    x_ = TensorF::Random(Shape("ibj", {cfg_.dims.i, cfg_.dims.b, cfg_.dims.j}),
                         47);
  }

  double Loss() {
    EncoderLayerT<float> layer(cfg_, params_);
    EncoderActivationsT<float> acts;
    layer.Forward(x_, acts);
    return testutil::ProbeLoss(acts.y);
  }

  EncoderGradientsT<float> Analytic() {
    EncoderLayerT<float> layer(cfg_, params_);
    EncoderActivationsT<float> acts;
    layer.Forward(x_, acts);
    auto d_y = testutil::ProbeLossGrad(acts.y.shape());
    EncoderGradientsT<float> grads;
    layer.Backward(d_y, acts, grads);
    return grads;
  }

  EncoderConfig cfg_;
  EncoderParamsT<float> params_;
  TensorF x_;
};

TEST_F(EncoderGradCheck, InputGradientMatchesFiniteDifferences) {
  auto grads = Analytic();
  auto numeric =
      testutil::NumericalGradient(x_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_x, numeric), 5e-3);
}

TEST_F(EncoderGradCheck, ProjectionWeightGradientMatches) {
  auto grads = Analytic();
  auto numeric = testutil::NumericalGradient(
      params_.w_qkv, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.params.w_qkv, numeric), 5e-3);
}

TEST_F(EncoderGradCheck, FeedForwardWeightGradientsMatch) {
  // w1 sits right before the ReLU: central differences straddle the kink
  // for a few elements, so bound the mean error tightly and the max
  // loosely (the analytic subgradient is correct there).
  auto mean_abs_diff = [](const TensorF& a, const TensorF& b) {
    double sum = 0;
    for (std::int64_t i = 0; i < a.size(); ++i) {
      sum += std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]);
    }
    return sum / static_cast<double>(a.size());
  };
  auto grads = Analytic();
  auto num_w1 = testutil::NumericalGradient(
      params_.w1, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(mean_abs_diff(grads.params.w1, num_w1), 1e-3);
  EXPECT_LT(MaxAbsDiff(grads.params.w1, num_w1), 5e-2);
  auto num_w2 = testutil::NumericalGradient(
      params_.w2, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.params.w2, num_w2), 5e-3);
}

TEST_F(EncoderGradCheck, BiasAndLayerNormGradientsMatch) {
  auto grads = Analytic();
  for (auto [name, param, grad] :
       {std::tuple{"b_out", &params_.b_out, &grads.params.b_out},
        std::tuple{"ln1_w", &params_.ln1_w, &grads.params.ln1_w},
        std::tuple{"ln2_b", &params_.ln2_b, &grads.params.ln2_b},
        std::tuple{"b1", &params_.b1, &grads.params.b1}}) {
    auto numeric =
        testutil::NumericalGradient(*param, [&] { return Loss(); }, 5e-3f);
    EXPECT_LT(MaxAbsDiff(*grad, numeric), 5e-3) << name;
  }
}

TEST_F(EncoderGradCheck, OutputProjectionGradientMatches) {
  auto grads = Analytic();
  auto numeric = testutil::NumericalGradient(
      params_.w_out, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.params.w_out, numeric), 5e-3);
}

}  // namespace
}  // namespace xflow::transformer
