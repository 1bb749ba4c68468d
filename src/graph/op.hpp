// Operator kinds and the paper's three-class taxonomy (Sec. III-B).
#pragma once

#include <string>

namespace xflow::graph {

/// The paper's operator classes: tensor contractions (△), statistical
/// normalizations (⬜) and element-wise operators (○).
enum class OpClass { kContraction, kStatNorm, kElementwise };

/// Logical operators appearing in transformer training. Following the paper,
/// an operator is one logical computation; it may map to several kernels.
enum class OpKind {
  // Forward.
  kContraction,    // einsum / (batched) MMM
  kBias,           // y = x + b (broadcast add)
  kReLU,           // y = max(x, 0)
  kDropout,        // y = x * mask * 1/(1-p); also emits the mask
  kResidual,       // y = a + b
  kScaledSoftmax,  // softmax(alpha * x) over the key dim + attention dropout
  kLayerNorm,      // per-(b,j) normalization over the embedding dim
  kEmbed,          // x[i,b,j] = token_table[ids[b,j], i] + pos_table[j, i]
  kMseLoss,        // loss = mean((y - target)^2); also emits d_y
  // Backward.
  kBiasDW,            // db = sum over independent dims of dy
  kReLUDX,            // dx = dy * (y > 0)
  kDropoutDX,         // dx = dy * mask * 1/(1-p)
  kResidualBwd,       // gradient merge of a residual connection: dx = da + db
  kScaledSoftmaxDX,   // backward of scaled softmax + dropout
  kLayerNormDX,       // gradient w.r.t. layernorm input
  kLayerNormDW,       // gradients w.r.t. layernorm scale/bias
  kEmbedDW,           // scatter-add of d_x into both embedding tables
};

/// Class of each kind (border style of the node in the paper's figures).
OpClass ClassOf(OpKind kind);

/// True for gradient-computing kinds. The first backward-kind op (or
/// recompute clone) splits a training-step graph into the forward and
/// backward regions, DataflowGraph::BackwardBegin (the loss op is a
/// forward op: it runs at the end of Forward and emits d_y).
bool IsBackwardOp(OpKind kind);

/// Display names, e.g. "tensor contraction".
std::string ToString(OpClass cls);
std::string ToString(OpKind kind);

/// The paper's class glyphs for bench output: "TC" / "SN" / "EW".
std::string ClassGlyph(OpClass cls);

/// flop per *output-driving* element for non-contraction operators, i.e. the
/// constants behind Table III's "required Gflop" column:
///   bias/dropout/residual: 1, relu: 0, softmax fwd: 6 (scale, max,
///   sub, exp, sum, div), softmax bwd: 5, layernorm fwd: 7, dX: 9, dW: 4.
double FlopPerElement(OpKind kind);

}  // namespace xflow::graph
