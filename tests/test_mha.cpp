#include "transformer/mha.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "ops/softmax.hpp"
#include "test_util.hpp"

namespace xflow::transformer {
namespace {

using graph::ModelDims;

MhaConfig TinyMha(bool causal = false, float dropout = 0.0f) {
  MhaConfig c;
  c.dims = ModelDims::Tiny();
  c.dropout_prob = dropout;
  c.causal = causal;
  c.seed = 3;
  return c;
}

/// Tiny with three more key/value positions than query positions.
ModelDims LongerKeys() {
  ModelDims d = ModelDims::Tiny();
  d.k = d.j + 3;
  return d;
}

TensorH SeqInput(const ModelDims& d, char seq_dim, std::uint64_t seed) {
  return TensorH::Random(
      Shape(std::string("ib") + seq_dim,
            {d.i, d.b, seq_dim == 'j' ? d.j : d.k}),
      seed);
}

/// Every attention row of the last Forward sums to one.
void ExpectRowsSumToOne(MhaLayer& layer) {
  const auto& d = layer.config().dims;
  const TensorH saved = layer.View("softmax_saved");
  for (std::int64_t h = 0; h < d.h; ++h) {
    for (std::int64_t b = 0; b < d.b; ++b) {
      for (std::int64_t j = 0; j < d.j; ++j) {
        float sum = 0;
        for (std::int64_t k = 0; k < d.k; ++k) {
          sum += float(saved.at({{'h', h}, {'b', b}, {'j', j}, {'k', k}}));
        }
        EXPECT_NEAR(sum, 1.0f, 0.02f);
      }
    }
  }
}

TEST(Mha, GeneralAttentionRuns) {
  auto cfg = TinyMha();
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 5));
  // Forward binds its inputs by reference: they must outlive Backward, so
  // every case passes named tensors, never temporaries.
  const auto q = SeqInput(cfg.dims, 'j', 1);
  const auto k = SeqInput(cfg.dims, 'k', 2);
  const auto v = SeqInput(cfg.dims, 'k', 3);
  const auto& out = layer.Forward(q, k, v);
  EXPECT_EQ(out.shape().names(), "ibj");
  EXPECT_EQ(out.extent('j'), cfg.dims.j);
}

TEST(Mha, AttentionRowsSumToOne) {
  auto cfg = TinyMha();
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 7));
  const auto q = SeqInput(cfg.dims, 'j', 1);
  const auto k = SeqInput(cfg.dims, 'k', 2);
  const auto v = SeqInput(cfg.dims, 'k', 3);
  layer.Forward(q, k, v);
  ExpectRowsSumToOne(layer);
}

TEST(Mha, KeysLongerThanQueries) {
  // Every other case has k == j; the planned graph must keep the two
  // sequence dims apart.
  auto cfg = TinyMha();
  cfg.dims = LongerKeys();
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 8));
  const auto q = SeqInput(cfg.dims, 'j', 1);
  const auto k = SeqInput(cfg.dims, 'k', 2);
  const auto v = SeqInput(cfg.dims, 'k', 3);
  const auto& out = layer.Forward(q, k, v);
  EXPECT_EQ(out.shape(), Shape("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j}));
  EXPECT_EQ(layer.View("softmax_saved").extent('k'), cfg.dims.k);
  ExpectRowsSumToOne(layer);
}

TEST(Mha, CausalMaskZeroesTheFuture) {
  auto cfg = TinyMha(/*causal=*/true);
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 9));
  const auto x = SeqInput(cfg.dims, 'j', 4);
  const auto kv = x.RenamedDim('j', 'k');
  layer.Forward(x, kv, kv);
  const TensorH saved = layer.View("softmax_saved");
  for (std::int64_t h = 0; h < cfg.dims.h; ++h) {
    for (std::int64_t b = 0; b < cfg.dims.b; ++b) {
      for (std::int64_t j = 0; j < cfg.dims.j; ++j) {
        float sum = 0;
        for (std::int64_t k = 0; k < cfg.dims.k; ++k) {
          const float s =
              float(saved.at({{'h', h}, {'b', b}, {'j', j}, {'k', k}}));
          if (k > j) {
            EXPECT_EQ(s, 0.0f) << "future position attended";
          }
          sum += s;
        }
        EXPECT_NEAR(sum, 1.0f, 0.02f);  // visible prefix still normalized
      }
    }
  }
}

TEST(Mha, CausalFirstPositionAttendsOnlyItself) {
  auto cfg = TinyMha(true);
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 11));
  const auto x = SeqInput(cfg.dims, 'j', 5);
  const auto kv = x.RenamedDim('j', 'k');
  layer.Forward(x, kv, kv);
  const TensorH saved = layer.View("softmax_saved");
  for (std::int64_t h = 0; h < cfg.dims.h; ++h) {
    for (std::int64_t b = 0; b < cfg.dims.b; ++b) {
      EXPECT_NEAR(float(saved.at({{'h', h}, {'b', b}, {'j', 0}, {'k', 0}})),
                  1.0f, 1e-3f);
    }
  }
}

TEST(Mha, CausalOutputIndependentOfFutureInput) {
  // Changing tokens after position t must not change the output at t.
  auto cfg = TinyMha(true);
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 13));
  const auto x = SeqInput(cfg.dims, 'j', 6);
  const auto kv = x.RenamedDim('j', 'k');
  // Deep copy: the output is an arena view the next Forward overwrites.
  const TensorH out1 = layer.Forward(x, kv, kv).Cast<Half>();

  auto x2 = x;  // perturb the last position only
  for (std::int64_t i = 0; i < cfg.dims.i; ++i) {
    for (std::int64_t b = 0; b < cfg.dims.b; ++b) {
      x2.at({{'i', i}, {'b', b}, {'j', cfg.dims.j - 1}}) = Half(9.0f);
    }
  }
  const auto kv2 = x2.RenamedDim('j', 'k');
  const TensorH& out2 = layer.Forward(x2, kv2, kv2);

  for (std::int64_t i = 0; i < cfg.dims.i; ++i) {
    for (std::int64_t b = 0; b < cfg.dims.b; ++b) {
      for (std::int64_t j = 0; j + 1 < cfg.dims.j; ++j) {
        EXPECT_EQ(float(out1.at({{'i', i}, {'b', b}, {'j', j}})),
                  float(out2.at({{'i', i}, {'b', b}, {'j', j}})))
            << "position " << j << " saw the future";
      }
    }
  }
}

TEST(Mha, SecondBackwardWithoutForwardIsRejected) {
  // Backward recycles the saved activations' bytes, so each Backward
  // needs its own Forward; a repeat must fail by name, not return
  // gradients computed from clobbered activations.
  auto cfg = TinyMha(/*causal=*/false, /*dropout=*/0.1f);
  MhaLayer layer(cfg, MhaParams::Init(cfg.dims, 15));
  const auto q = SeqInput(cfg.dims, 'j', 1);
  const auto k = SeqInput(cfg.dims, 'k', 2);
  const auto v = SeqInput(cfg.dims, 'k', 3);
  const auto d_out = SeqInput(cfg.dims, 'j', 4);
  MhaGradients grads;
  EXPECT_THROW(layer.Backward(d_out, grads), InvalidArgument);
  layer.Forward(q, k, v);
  layer.Backward(d_out, grads);
  const TensorH d_q = grads.d_q.Cast<Half>();
  EXPECT_THROW(layer.Backward(d_out, grads), InvalidArgument);
  layer.Forward(q, k, v);
  layer.Backward(d_out, grads);
  EXPECT_EQ(MaxAbsDiff(grads.d_q, d_q), 0.0);
}

// Gradient checks for the standalone MHA (fp32, no dropout). One layer
// serves every evaluation: finite differences perturb the inputs and the
// parameters the layer binds (layer.params()) in place, so each
// evaluation is one Forward.
class MhaGradCheck : public ::testing::Test {
 protected:
  MhaGradCheck() { Build(ModelDims::Tiny()); }

  void Build(const ModelDims& dims, bool causal = false) {
    MhaConfig cfg;
    cfg.dims = dims;
    cfg.causal = causal;
    layer_.emplace(cfg, MhaParamsT<float>::Init(dims, 21));
    q_ = TensorF::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 22);
    k_ = TensorF::Random(Shape("ibk", {dims.i, dims.b, dims.k}), 23);
    v_ = TensorF::Random(Shape("ibk", {dims.i, dims.b, dims.k}), 24);
  }

  double Loss() { return testutil::ProbeLoss(layer_->Forward(q_, k_, v_)); }

  MhaGradientsT<float> Analytic() {
    const TensorF& out = layer_->Forward(q_, k_, v_);
    MhaGradientsT<float> grads;
    layer_->Backward(testutil::ProbeLossGrad(out.shape()), grads);
    return grads;
  }

  MhaParamsT<float>& params() { return layer_->params(); }

  std::optional<MhaLayerT<float>> layer_;
  TensorF q_, k_, v_;
};

TEST_F(MhaGradCheck, InputGradientsMatchFiniteDifferences) {
  auto grads = Analytic();
  auto num_q = testutil::NumericalGradient(q_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_q, num_q), 5e-3);
  auto num_k = testutil::NumericalGradient(k_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_k, num_k), 5e-3);
  auto num_v = testutil::NumericalGradient(v_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_v, num_v), 5e-3);
}

TEST_F(MhaGradCheck, WeightGradientsMatchFiniteDifferences) {
  auto grads = Analytic();
  for (auto [name, param, grad] :
       {std::tuple{"wq", &params().wq, &grads.params.wq},
        std::tuple{"wv", &params().wv, &grads.params.wv},
        std::tuple{"wo", &params().wo, &grads.params.wo},
        std::tuple{"bk", &params().bk, &grads.params.bk}}) {
    auto numeric =
        testutil::NumericalGradient(*param, [&] { return Loss(); }, 5e-3f);
    EXPECT_LT(MaxAbsDiff(*grad, numeric), 5e-3) << name;
  }
}

TEST_F(MhaGradCheck, CausalGradientsMatchFiniteDifferences) {
  Build(ModelDims::Tiny(), /*causal=*/true);
  auto grads = Analytic();
  auto num_q = testutil::NumericalGradient(q_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_q, num_q), 5e-3);
  auto num_wv = testutil::NumericalGradient(
      params().wv, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.params.wv, num_wv), 5e-3);
}

TEST_F(MhaGradCheck, LongerKeysGradientsMatchFiniteDifferences) {
  Build(LongerKeys());
  auto grads = Analytic();
  EXPECT_EQ(grads.d_k.extent('k'), LongerKeys().k);
  auto num_k = testutil::NumericalGradient(k_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_k, num_k), 5e-3);
  auto num_v = testutil::NumericalGradient(v_, [&] { return Loss(); }, 5e-3f);
  EXPECT_LT(MaxAbsDiff(grads.d_v, num_v), 5e-3);
}

TEST(CausalSoftmaxOp, MatchesPlainSoftmaxOnVisiblePrefix) {
  const Shape hbjk("hbjk", {1, 1, 4, 4});
  auto beta = TensorF::Random(hbjk, 31);
  TensorF alpha(hbjk), mask(hbjk), saved(hbjk);
  ops::CausalScaledSoftmaxForward(beta, 'k', 'j', 0.7f, DropoutMask(1, 0.0f),
                                  alpha, mask, saved);
  // Last row (j = 3) sees everything: equals the unmasked softmax row.
  TensorF a2(hbjk), m2(hbjk), s2(hbjk);
  ops::ScaledSoftmaxForward(beta, 'k', 0.7f, DropoutMask(1, 0.0f), a2, m2,
                            s2);
  for (std::int64_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(
        float(saved.at({{'h', 0}, {'b', 0}, {'j', 3}, {'k', k}})),
        float(s2.at({{'h', 0}, {'b', 0}, {'j', 3}, {'k', k}})), 1e-6);
  }
}

}  // namespace
}  // namespace xflow::transformer
