#include "transformer/encoder.hpp"

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "ops/elementwise.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"

namespace xflow::transformer {

namespace {

/// Dropout sites get decorrelated Philox streams derived from the layer
/// seed; the planned executor draws the same streams (EncoderDropoutSeeds).
enum DropoutSite : std::uint64_t {
  kAttnSoftmax = 0,
  kAttnOutput = 1,
  kFeedForward = 2,
  kOutput = 3,
};

std::uint64_t SiteSeed(std::uint64_t seed, DropoutSite site) {
  std::uint64_t s = seed * 4 + site;
  return SplitMix64(s);
}

/// The layer's contractions, parsed once per process: steady-state steps
/// must not re-parse specs (or allocate output tensors -- every call site
/// uses EinsumInto with reused storage).
struct EncoderSpecs {
  EinsumSpec qkv = EinsumSpec::Parse("phi,ibj->phbj");
  EinsumSpec qkt = EinsumSpec::Parse("phbk,phbj->hbjk");
  EinsumSpec gamma = EinsumSpec::Parse("whbk,hbjk->whbj");
  EinsumSpec out = EinsumSpec::Parse("whi,whbj->ibj");
  EinsumSpec lin1 = EinsumSpec::Parse("ui,ibj->ubj");
  EinsumSpec lin2 = EinsumSpec::Parse("iu,ubj->ibj");
  EinsumSpec lin2_dx = EinsumSpec::Parse("iu,ibj->ubj");
  EinsumSpec lin2_dw = EinsumSpec::Parse("ibj,ubj->iu");
  EinsumSpec lin1_dx = EinsumSpec::Parse("ui,ubj->ibj");
  EinsumSpec lin1_dw = EinsumSpec::Parse("ubj,ibj->ui");
  EinsumSpec out_dx = EinsumSpec::Parse("whi,ibj->whbj");
  EinsumSpec out_dw = EinsumSpec::Parse("ibj,whbj->whi");
  EinsumSpec gamma_dx1 = EinsumSpec::Parse("whbk,whbj->hbjk");
  EinsumSpec gamma_dx2 = EinsumSpec::Parse("whbj,hbjk->whbk");
  EinsumSpec qkt_dx1 = EinsumSpec::Parse("phbj,hbjk->phbk");
  EinsumSpec qkt_dx2 = EinsumSpec::Parse("hbjk,phbk->phbj");
  EinsumSpec qkv_dx = EinsumSpec::Parse("phi,phbj->ibj");
  EinsumSpec qkv_dw = EinsumSpec::Parse("phbj,ibj->phi");
};

const EncoderSpecs& S() {
  static const EncoderSpecs specs;
  return specs;
}

}  // namespace

std::vector<std::uint64_t> EncoderDropoutSeeds(std::uint64_t layer_seed) {
  return {SiteSeed(layer_seed, kAttnSoftmax), SiteSeed(layer_seed, kAttnOutput),
          SiteSeed(layer_seed, kFeedForward), SiteSeed(layer_seed, kOutput)};
}

template <typename T>
EncoderParamsT<T> EncoderParamsT<T>::Init(const graph::ModelDims& d,
                                          std::uint64_t seed) {
  const auto i = d.i;
  const auto p3 = 3 * d.p;
  auto scaled = [&](Shape shape, std::int64_t fan_in,
                    std::uint64_t s) -> Tensor<T> {
    auto t = Tensor<T>::Random(std::move(shape), s);
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (std::int64_t e = 0; e < t.size(); ++e) {
      t.data()[e] = T(float(t.data()[e]) * scale);
    }
    return t;
  };
  EncoderParamsT<T> params;
  params.w_qkv = scaled(Shape("phi", {p3, d.h, i}), i, seed + 1);
  params.b_qkv = scaled(Shape("ph", {p3, d.h}), i, seed + 2);
  params.w_out = scaled(Shape("whi", {d.p, d.h, i}), d.p * d.h, seed + 3);
  params.b_out = scaled(Shape("i", {i}), i, seed + 4);
  params.ln1_w = Tensor<T>::Full(Shape("i", {i}), 1.0f);
  params.ln1_b = Tensor<T>::Full(Shape("i", {i}), 0.0f);
  params.w1 = scaled(Shape("ui", {d.u, i}), i, seed + 5);
  params.b1 = scaled(Shape("u", {d.u}), i, seed + 6);
  params.w2 = scaled(Shape("iu", {i, d.u}), d.u, seed + 7);
  params.b2 = scaled(Shape("i", {i}), d.u, seed + 8);
  params.ln2_w = Tensor<T>::Full(Shape("i", {i}), 1.0f);
  params.ln2_b = Tensor<T>::Full(Shape("i", {i}), 0.0f);
  return params;
}

template <typename T>
std::vector<std::pair<std::string, Tensor<T>*>> EncoderParamsT<T>::Named() {
  return {{"w_qkv", &w_qkv}, {"b_qkv", &b_qkv}, {"w_out", &w_out},
          {"b_out", &b_out}, {"ln1_w", &ln1_w}, {"ln1_b", &ln1_b},
          {"w1", &w1},       {"b1", &b1},       {"w2", &w2},
          {"b2", &b2},       {"ln2_w", &ln2_w}, {"ln2_b", &ln2_b}};
}

template <typename T>
void EncoderParamsT<T>::EnsureShapes(const graph::ModelDims& d) {
  const auto p3 = 3 * d.p;
  w_qkv.EnsureShape(Shape("phi", {p3, d.h, d.i}));
  b_qkv.EnsureShape(Shape("ph", {p3, d.h}));
  w_out.EnsureShape(Shape("whi", {d.p, d.h, d.i}));
  b_out.EnsureShape(Shape("i", {d.i}));
  ln1_w.EnsureShape(Shape("i", {d.i}));
  ln1_b.EnsureShape(Shape("i", {d.i}));
  w1.EnsureShape(Shape("ui", {d.u, d.i}));
  b1.EnsureShape(Shape("u", {d.u}));
  w2.EnsureShape(Shape("iu", {d.i, d.u}));
  b2.EnsureShape(Shape("i", {d.i}));
  ln2_w.EnsureShape(Shape("i", {d.i}));
  ln2_b.EnsureShape(Shape("i", {d.i}));
}

template <typename T>
EncoderLayerT<T>::EncoderLayerT(EncoderConfig config, EncoderParamsT<T> params)
    : config_(std::move(config)),
      params_(std::move(params)),
      keep_scale_(DropoutKeepScale(config_.dropout_prob)) {}

template <typename T>
const Tensor<T>& EncoderLayerT<T>::Forward(const Tensor<T>& x,
                                           EncoderActivationsT<T>& acts) const {
  const auto& d = config_.dims;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  const DropoutMask attn_sm_mask(SiteSeed(config_.seed, kAttnSoftmax),
                                 config_.dropout_prob);
  const DropoutMask attn_out_mask(SiteSeed(config_.seed, kAttnOutput),
                                  config_.dropout_prob);
  const DropoutMask ff_mask(SiteSeed(config_.seed, kFeedForward),
                            config_.dropout_prob);
  const DropoutMask out_mask(SiteSeed(config_.seed, kOutput),
                             config_.dropout_prob);
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const Shape ubj("ubj", {d.u, d.b, d.j});
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape whbj("whbj", {d.p, d.h, d.b, d.j});
  const Shape phbj("phbj", {d.p, d.h, d.b, d.j});
  const Shape phbj3("phbj", {3 * d.p, d.h, d.b, d.j});
  const Shape bj("bj", {d.b, d.j});

  // Saved activations are owning buffers that EnsureShape reuses across
  // steps; the kernels below overwrite them fully.
  auto slot = [](auto& t, const Shape& shape) -> auto& {
    t.EnsureShape(shape);
    return t;
  };

  // The input is saved for the backward dW contractions.
  CopyValuesInto(x, slot(acts.x, x.shape()));

  // Q,K,V: one stacked GEMM (algebraic fusion, Sec. IV-D). The three
  // projections are contiguous sub-blocks of the stacked output, so the
  // split is a zero-copy view.
  Tensor<T> proj(phbj3);
  EinsumInto(S().qkv, params_.w_qkv, x, proj);
  auto qq = proj.SliceViewDim('p', 0, d.p);
  auto kk = proj.SliceViewDim('p', d.p, d.p);
  auto vv = proj.SliceViewDim('p', 2 * d.p, d.p);

  // AIB.
  slot(acts.qq_b, phbj);
  Tensor<T> kk_b(phbj);
  Tensor<T> vv_b(phbj);
  ops::BiasForward(qq, params_.b_qkv.SliceViewDim('p', 0, d.p), acts.qq_b);
  ops::BiasForward(kk, params_.b_qkv.SliceViewDim('p', d.p, d.p), kk_b);
  ops::BiasForward(vv, params_.b_qkv.SliceViewDim('p', 2 * d.p, d.p), vv_b);
  acts.kk_b = kk_b.RenamedDim('j', 'k');
  acts.vv_b = vv_b.RenamedDim('j', 'k').RenamedDim('p', 'w');

  // QKT (the softmax scaling lives in the SM kernel).
  Tensor<T> beta(hbjk);
  EinsumInto(S().qkt, acts.kk_b, acts.qq_b, beta);

  // SM: scale + softmax + attention dropout.
  slot(acts.alpha, hbjk);
  slot(acts.attn_mask, hbjk);
  slot(acts.softmax_saved, hbjk);
  if (config_.causal) {
    ops::CausalScaledSoftmaxForward(beta, 'k', 'j', attn_scale, attn_sm_mask,
                                    acts.alpha, acts.attn_mask,
                                    acts.softmax_saved);
  } else {
    ops::ScaledSoftmaxForward(beta, 'k', attn_scale, attn_sm_mask,
                              acts.alpha, acts.attn_mask,
                              acts.softmax_saved);
  }

  // gamma and the output projection.
  slot(acts.gamma_t, whbj);
  EinsumInto(S().gamma, acts.vv_b, acts.alpha, acts.gamma_t);
  Tensor<T> attn_out(ibj);
  EinsumInto(S().out, params_.w_out, acts.gamma_t, attn_out);

  // DRLN: output bias + dropout + residual + layernorm 1.
  slot(acts.resid1, ibj);
  slot(acts.attn_drop_mask, ibj);
  slot(acts.ln1_out, ibj);
  slot(acts.ln1_mean, bj);
  slot(acts.ln1_rstd, bj);
  Tensor<T> attn_biased(ibj);
  Tensor<T> attn_dropped(ibj);
  ops::BiasForward(attn_out, params_.b_out, attn_biased);
  ops::DropoutForward(attn_biased, attn_out_mask, attn_dropped,
                      acts.attn_drop_mask);
  ops::ResidualForward(attn_dropped, x, acts.resid1);
  ops::LayerNormForward(acts.resid1, params_.ln1_w, params_.ln1_b, 'i',
                        config_.ln_eps, acts.ln1_out, acts.ln1_mean,
                        acts.ln1_rstd);

  // Feed-forward: linear 1, BRD, linear 2, BDRLN.
  Tensor<T> lin1(ubj);
  EinsumInto(S().lin1, params_.w1, acts.ln1_out, lin1);
  slot(acts.relu1, ubj);
  slot(acts.ff_dropped, ubj);
  slot(acts.ff_drop_mask, ubj);
  Tensor<T> lin1_biased(ubj);
  ops::BiasForward(lin1, params_.b1, lin1_biased);
  ops::ReluForward(lin1_biased, acts.relu1);
  ops::DropoutForward(acts.relu1, ff_mask, acts.ff_dropped,
                      acts.ff_drop_mask);

  Tensor<T> lin2(ibj);
  EinsumInto(S().lin2, params_.w2, acts.ff_dropped, lin2);
  slot(acts.resid2, ibj);
  slot(acts.lin2_drop_mask, ibj);
  slot(acts.y, ibj);
  slot(acts.ln2_mean, bj);
  slot(acts.ln2_rstd, bj);
  Tensor<T> lin2_biased(ibj);
  Tensor<T> lin2_dropped(ibj);
  ops::BiasForward(lin2, params_.b2, lin2_biased);
  ops::DropoutForward(lin2_biased, out_mask, lin2_dropped,
                      acts.lin2_drop_mask);
  ops::ResidualForward(lin2_dropped, acts.ln1_out, acts.resid2);
  ops::LayerNormForward(acts.resid2, params_.ln2_w, params_.ln2_b, 'i',
                        config_.ln_eps, acts.y, acts.ln2_mean, acts.ln2_rstd);
  return acts.y;
}

template <typename T>
void EncoderLayerT<T>::Backward(const Tensor<T>& d_y,
                                const EncoderActivationsT<T>& acts,
                                EncoderGradientsT<T>& grads) const {
  const auto& d = config_.dims;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const Shape ubj("ubj", {d.u, d.b, d.j});
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape whbj("whbj", {d.p, d.h, d.b, d.j});
  const Shape whbk("whbk", {d.p, d.h, d.b, d.k});
  const Shape phbk("phbk", {d.p, d.h, d.b, d.k});
  const Shape phbj("phbj", {d.p, d.h, d.b, d.j});
  auto& gp = grads.params;
  gp.EnsureShapes(d);  // accumulators; every entry is overwritten below

  // BSB: layernorm 2 dW.
  ops::LayerNormBackwardDW(d_y, acts.resid2, acts.ln2_mean, acts.ln2_rstd,
                           'i', gp.ln2_w, gp.ln2_b);

  // BLNRD: layernorm 2 dX + output dropout dX (keeps d_resid2 for EBSB).
  Tensor<T> d_resid2(ibj);
  Tensor<T> d_lin2_biased(ibj);
  ops::LayerNormBackwardDX(d_y, params_.ln2_w, acts.resid2, acts.ln2_mean,
                           acts.ln2_rstd, 'i', d_resid2);
  ops::DropoutBackwardDX(d_resid2, acts.lin2_drop_mask, keep_scale_,
                         d_lin2_biased);

  // Linear 2 dX / dW.
  Tensor<T> d_ff_dropped(ubj);
  EinsumInto(S().lin2_dx, params_.w2, d_lin2_biased, d_ff_dropped);
  EinsumInto(S().lin2_dw, d_lin2_biased, acts.ff_dropped, gp.w2);

  // BDRB: bias2 dW + ff dropout dX + relu dX + bias1 dW.
  Tensor<T> d_lin1_biased(ubj);
  ops::BiasBackwardDW(d_lin2_biased, gp.b2);
  Tensor<T> d_relu(ubj);
  ops::DropoutBackwardDX(d_ff_dropped, acts.ff_drop_mask, keep_scale_,
                         d_relu);
  ops::ReluBackwardDX(d_relu, acts.relu1, d_lin1_biased);
  ops::BiasBackwardDW(d_lin1_biased, gp.b1);

  // Linear 1 dX / dW.
  Tensor<T> d_ln1_ff(ibj);
  EinsumInto(S().lin1_dx, params_.w1, d_lin1_biased, d_ln1_ff);
  EinsumInto(S().lin1_dw, d_lin1_biased, acts.ln1_out, gp.w1);

  // EBSB: residual merge + layernorm 1 dW.
  Tensor<T> d_ln1_out(ibj);
  ops::ResidualForward(d_ln1_ff, d_resid2, d_ln1_out);
  ops::LayerNormBackwardDW(d_ln1_out, acts.resid1, acts.ln1_mean,
                           acts.ln1_rstd, 'i', gp.ln1_w, gp.ln1_b);

  // BLNRD: layernorm 1 dX + attention dropout dX.
  Tensor<T> d_resid1(ibj);
  Tensor<T> d_attn_biased(ibj);
  ops::LayerNormBackwardDX(d_ln1_out, params_.ln1_w, acts.resid1,
                           acts.ln1_mean, acts.ln1_rstd, 'i', d_resid1);
  ops::DropoutBackwardDX(d_resid1, acts.attn_drop_mask, keep_scale_,
                         d_attn_biased);

  // BAOB: output bias dW.
  ops::BiasBackwardDW(d_attn_biased, gp.b_out);

  // Attention backward contractions.
  Tensor<T> d_gamma(whbj);
  EinsumInto(S().out_dx, params_.w_out, d_attn_biased, d_gamma);
  EinsumInto(S().out_dw, d_attn_biased, acts.gamma_t, gp.w_out);
  Tensor<T> d_alpha(hbjk);
  EinsumInto(S().gamma_dx1, acts.vv_b, d_gamma, d_alpha);
  Tensor<T> d_vv(whbk);
  EinsumInto(S().gamma_dx2, d_gamma, acts.alpha, d_vv);

  // BS: dropout + softmax + scaling backward.
  Tensor<T> d_beta(hbjk);
  ops::ScaledSoftmaxBackwardDX(d_alpha, acts.attn_mask, acts.softmax_saved,
                               'k', attn_scale, keep_scale_, d_beta);

  // QKT dX1 / dX2.
  Tensor<T> d_kk(phbk);
  EinsumInto(S().qkt_dx1, acts.qq_b, d_beta, d_kk);
  Tensor<T> d_qq(phbj);
  EinsumInto(S().qkt_dx2, d_beta, acts.kk_b, d_qq);

  // Stacked [dQ~ dK~ dV~] (algebraic fusion); the planned executor places
  // the three gradients as one contiguous block instead of concatenating.
  auto d_kk_j = d_kk.RenamedDim('k', 'j');
  auto d_vv_j = d_vv.RenamedDim('k', 'j').RenamedDim('w', 'p');
  Tensor<T> d_proj = ConcatDim<T>({&d_qq, &d_kk_j, &d_vv_j}, 'p');
  grads.d_x.EnsureShape(ibj);
  Tensor<T> d_x_qkv(ibj);
  EinsumInto(S().qkv_dx, params_.w_qkv, d_proj, d_x_qkv);
  EinsumInto(S().qkv_dw, d_proj, acts.x, gp.w_qkv);

  // BAIB: stacked input-bias gradient.
  ops::BiasBackwardDW(d_proj, gp.b_qkv);

  // BEI: encoder-input residual.
  ops::ResidualForward(d_x_qkv, d_resid1, grads.d_x);
}

template struct EncoderParamsT<Half>;
template struct EncoderParamsT<float>;
template class EncoderLayerT<Half>;
template class EncoderLayerT<float>;

}  // namespace xflow::transformer
