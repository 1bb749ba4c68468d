// Standalone multi-head attention with distinct query/key/value inputs --
// the paper's Fig. 1 primitive ("MHA is also used outside of transformers,
// so understanding its performance in isolation can inform other models").
//
// Supports the three MHA classes of Sec. II-B1:
//   general attention       (q, k, v distinct),
//   encoder/decoder attention (k == v),
//   self-attention          (q == k == v; what EncoderLayer uses inline),
// plus the optional causal masking step.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "tensor/tensor.hpp"

namespace xflow::transformer {

struct MhaConfig {
  graph::ModelDims dims = graph::ModelDims::Tiny();
  float dropout_prob = 0.0f;
  std::uint64_t seed = 1;
  bool causal = false;
};

/// Separate projection weights (the general-attention layout of Fig. 1;
/// algebraic stacking only applies to self-attention where the three
/// inputs coincide, Sec. IV-D).
template <typename T>
struct MhaParamsT {
  Tensor<T> wq, wk;  // [p, h, i]
  Tensor<T> wv, wo;  // [w, h, i]
  Tensor<T> bq, bk;  // [p, h]
  Tensor<T> bv;      // [w, h]
  Tensor<T> bo;      // [i]

  static MhaParamsT Init(const graph::ModelDims& d, std::uint64_t seed);
  std::vector<std::pair<std::string, Tensor<T>*>> Named();
  /// Gives every tensor its parameter shape without initializing values
  /// (gradient accumulators; Backward overwrites every entry).
  void EnsureShapes(const graph::ModelDims& d);
};

template <typename T>
struct MhaActivationsT {
  Tensor<T> q, k, v;  // inputs (saved for dW)
  Tensor<T> qq_b, kk_b, vv_b;
  Tensor<T> alpha, attn_mask, softmax_saved;
  Tensor<T> gamma_t;
  Tensor<T> out;  // final output [i, b, j]
};

template <typename T>
struct MhaGradientsT {
  MhaParamsT<T> params;
  Tensor<T> d_q, d_k, d_v;
};

template <typename T>
class MhaLayerT {
 public:
  MhaLayerT(MhaConfig config, MhaParamsT<T> params);

  /// General attention: q is [i, b, j]; k and v are [i, b, k].
  const Tensor<T>& Forward(const Tensor<T>& q, const Tensor<T>& k,
                           const Tensor<T>& v, MhaActivationsT<T>& acts) const;

  /// Backward from d_out [i, b, j]; fills parameter gradients and the
  /// gradients of all three inputs.
  void Backward(const Tensor<T>& d_out, const MhaActivationsT<T>& acts,
                MhaGradientsT<T>& grads) const;

  [[nodiscard]] const MhaConfig& config() const { return config_; }
  [[nodiscard]] MhaParamsT<T>& params() { return params_; }

 private:
  MhaConfig config_;
  MhaParamsT<T> params_;
  float keep_scale_;  // DropoutKeepScale(config_.dropout_prob)
};

using MhaParams = MhaParamsT<Half>;
using MhaActivations = MhaActivationsT<Half>;
using MhaGradients = MhaGradientsT<Half>;
using MhaLayer = MhaLayerT<Half>;

extern template class MhaLayerT<Half>;
extern template class MhaLayerT<float>;
extern template struct MhaParamsT<Half>;
extern template struct MhaParamsT<float>;

}  // namespace xflow::transformer
