// The paper's fused operators (Sec. IV-A): each function is one "kernel" --
// a single pass over memory that avoids materializing interim tensors.
// Naming follows the paper:
//   AIB    attention input bias                      (forward; elementwise.hpp)
//   SM     scaling + softmax + dropout               (forward; softmax.hpp)
//   BRD    bias + ReLU + dropout                     (forward)
//   BDRLN  bias + dropout + residual + layernorm     (forward; also DRLN)
//   BSB    backward layernorm scale and bias         (layernorm.hpp)
//   BLNRD  backward layernorm dX + dropout dX
//   BDRB   backward bias dW + dropout dX + ReLU dX + bias dW
//   EBSB   backward residual + layernorm scale/bias
//   BS     backward dropout + softmax + scaling      (softmax.hpp)
//   BEI    backward encoder-input residual           (elementwise.hpp)
//   BAOB   backward attention output bias            (elementwise.hpp)
//   BAIB   backward attention input bias             (elementwise.hpp: one
//          BiasBackwardDW over the stacked [dQ~ dK~ dV~] group view)
#pragma once

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace xflow::ops {

/// BRD: y = dropout(relu(x + bias)). The ReLU output is additionally saved
/// for the backward pass (the paper's BDRB kernel consumes it).
template <typename T>
void BiasReluDropout(const Tensor<T>& x, const Tensor<T>& bias,
                     const DropoutMask& mask, Tensor<T>& relu_saved,
                     Tensor<T>& y, Tensor<T>& mask_out);

/// BDRLN (and DRLN): resid = dropout(x + bias) + residual_in;
/// y = layernorm(resid). The interim biased/dropped tensors are never
/// written to memory; `resid` is saved because backward needs it.
template <typename T>
void BiasDropoutResidualLayerNorm(const Tensor<T>& x, const Tensor<T>& bias,
                                  const Tensor<T>& residual_in,
                                  const DropoutMask& mask,
                                  const Tensor<T>& ln_gamma,
                                  const Tensor<T>& ln_beta, char norm_dim,
                                  float eps, Tensor<T>& resid_saved,
                                  Tensor<T>& mask_out, Tensor<T>& y,
                                  TensorF& ln_mean, TensorF& ln_rstd);

/// BLNRD: d_resid = layernorm-dX(dy); d_out = dropout-dX(d_resid).
/// d_resid is written out too ("saving the intermediate result for the
/// residual connection", Sec. IV-A).
template <typename T>
void LayerNormDropoutBackward(const Tensor<T>& dy, const Tensor<T>& ln_gamma,
                              const Tensor<T>& x_saved, const TensorF& mean,
                              const TensorF& rstd, const Tensor<T>& drop_mask,
                              char norm_dim, float keep_scale,
                              Tensor<T>& d_resid, Tensor<T>& d_out);

/// BDRB: d_bias_hi = sum(dy_hi); t = relu-dX(dropout-dX(dy_lo));
/// d_x_lo = t; d_bias_lo = sum(t). Two gradient streams, one launch.
template <typename T>
void BiasDropoutReluBiasBackward(const Tensor<T>& dy_hi,
                                 const Tensor<T>& dy_lo,
                                 const Tensor<T>& drop_mask,
                                 const Tensor<T>& relu_saved, float keep_scale,
                                 Tensor<T>& d_bias_hi, Tensor<T>& d_x_lo,
                                 Tensor<T>& d_bias_lo);

/// EBSB: d_sum = da + db (residual gradient merge), then layernorm dW
/// reductions using d_sum.
template <typename T>
void ResidualLayerNormDwBackward(const Tensor<T>& da, const Tensor<T>& db,
                                 const Tensor<T>& x_saved, const TensorF& mean,
                                 const TensorF& rstd, char norm_dim,
                                 Tensor<T>& d_sum, Tensor<T>& dgamma,
                                 Tensor<T>& dbeta);

}  // namespace xflow::ops
