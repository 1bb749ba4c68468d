// BERT encoder layer: numerically complete forward and backward passes on
// the CPU substrate -- the only hand-wired transformer code, kept as the
// owning reference the planned executor (transformer/stack.hpp) is checked
// against. It runs per-operator kernels (the framework baseline) only, so
// it is independent of the fused kernels the executor launches; the two
// agree bit for bit because fusion changes data movement only.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "tensor/tensor.hpp"

namespace xflow::transformer {

/// One layer's four dropout-site Philox seeds, in dropout-op graph order
/// (SM attention dropout, attention-output dropout, feed-forward, output).
/// This is the exact ExecutorOptions::dropout_seeds block a single layer
/// uses; a whole-stack executor concatenates one block per layer.
std::vector<std::uint64_t> EncoderDropoutSeeds(std::uint64_t layer_seed);

struct EncoderConfig {
  graph::ModelDims dims = graph::ModelDims::Tiny();
  float dropout_prob = 0.1f;
  float ln_eps = 1e-5f;
  std::uint64_t seed = 1;        // drives dropout masks
  /// Selects only the planned executor's schedule: the paper's fused
  /// kernels or one launch per operator. EncoderLayerT runs per operator.
  bool use_fused_kernels = true;
  /// Causal attention masking: turns the layer into a GPT-2/3 style
  /// decoder block (the paper notes decoders differ only in such minor
  /// aspects, Sec. VIII).
  bool causal = false;
};

/// Layer parameters. Dimension names follow the paper; the Q/K/V projection
/// is stored algebraically fused ([W^Q W^K W^V] stacked along p, Sec. IV-D).
template <typename T>
struct EncoderParamsT {
  Tensor<T> w_qkv;   // [3p, h, i]
  Tensor<T> b_qkv;   // [3p, h]
  Tensor<T> w_out;   // [w=p, h, i]
  Tensor<T> b_out;   // [i]
  Tensor<T> ln1_w, ln1_b;  // [i]
  Tensor<T> w1;      // [u, i]
  Tensor<T> b1;      // [u]
  Tensor<T> w2;      // [i, u]
  Tensor<T> b2;      // [i]
  Tensor<T> ln2_w, ln2_b;  // [i]

  /// Scaled uniform init (layernorm scale = 1, biases = 0).
  static EncoderParamsT Init(const graph::ModelDims& d, std::uint64_t seed);
  /// Name -> tensor map, for optimizers and checkpointing.
  std::vector<std::pair<std::string, Tensor<T>*>> Named();
  /// Gives every tensor its parameter shape without initializing values,
  /// reusing existing storage when already shaped -- the allocation path
  /// for gradient accumulators (Backward overwrites every entry).
  void EnsureShapes(const graph::ModelDims& d);
};

/// Every tensor the forward pass produces that backward needs (the "saved"
/// edges of the dataflow graph).
template <typename T>
struct EncoderActivationsT {
  Tensor<T> x;
  Tensor<T> qq_b, kk_b, vv_b;
  Tensor<T> alpha, attn_mask, softmax_saved;
  Tensor<T> gamma_t;
  Tensor<T> attn_drop_mask;
  Tensor<T> resid1;
  TensorF ln1_mean, ln1_rstd;
  Tensor<T> ln1_out;
  Tensor<T> relu1, ff_dropped, ff_drop_mask;
  Tensor<T> lin2_drop_mask;
  Tensor<T> resid2;
  TensorF ln2_mean, ln2_rstd;
  Tensor<T> y;
};

template <typename T>
struct EncoderGradientsT {
  EncoderParamsT<T> params;  // same shapes as the parameters
  Tensor<T> d_x;
};

/// The encoder layer. Forward/Backward follow the Table III operator
/// sequence exactly, one kernel per operator.
template <typename T>
class EncoderLayerT {
 public:
  EncoderLayerT(EncoderConfig config, EncoderParamsT<T> params);

  /// Runs forward propagation; fills `acts` and returns acts.y. Storage
  /// in `acts` is reused across calls when already shaped.
  const Tensor<T>& Forward(const Tensor<T>& x,
                           EncoderActivationsT<T>& acts) const;

  /// Runs backpropagation from d_y; fills all parameter gradients and d_x.
  void Backward(const Tensor<T>& d_y, const EncoderActivationsT<T>& acts,
                EncoderGradientsT<T>& grads) const;

  [[nodiscard]] const EncoderConfig& config() const { return config_; }
  [[nodiscard]] EncoderParamsT<T>& params() { return params_; }
  [[nodiscard]] const EncoderParamsT<T>& params() const { return params_; }

 private:
  EncoderConfig config_;
  EncoderParamsT<T> params_;
  float keep_scale_;  // DropoutKeepScale(config_.dropout_prob)
};

using EncoderParams = EncoderParamsT<Half>;
using EncoderActivations = EncoderActivationsT<Half>;
using EncoderGradients = EncoderGradientsT<Half>;
using EncoderLayer = EncoderLayerT<Half>;

extern template class EncoderLayerT<Half>;
extern template class EncoderLayerT<float>;
extern template struct EncoderParamsT<Half>;
extern template struct EncoderParamsT<float>;

}  // namespace xflow::transformer
