#include "graph/op.hpp"

#include "common/error.hpp"

namespace xflow::graph {

OpClass ClassOf(OpKind kind) {
  switch (kind) {
    case OpKind::kContraction:
      return OpClass::kContraction;
    case OpKind::kScaledSoftmax:
    case OpKind::kLayerNorm:
    case OpKind::kMseLoss:
    case OpKind::kBiasDW:
    case OpKind::kScaledSoftmaxDX:
    case OpKind::kLayerNormDX:
    case OpKind::kLayerNormDW:
    case OpKind::kEmbedDW:
      return OpClass::kStatNorm;
    case OpKind::kBias:
    case OpKind::kReLU:
    case OpKind::kDropout:
    case OpKind::kResidual:
    case OpKind::kEmbed:
    case OpKind::kReLUDX:
    case OpKind::kDropoutDX:
    case OpKind::kResidualBwd:
      return OpClass::kElementwise;
  }
  check(false, "unknown OpKind");
  return OpClass::kElementwise;
}

bool IsBackwardOp(OpKind kind) {
  switch (kind) {
    case OpKind::kBiasDW:
    case OpKind::kReLUDX:
    case OpKind::kDropoutDX:
    case OpKind::kResidualBwd:
    case OpKind::kScaledSoftmaxDX:
    case OpKind::kLayerNormDX:
    case OpKind::kLayerNormDW:
    case OpKind::kEmbedDW:
      return true;
    case OpKind::kContraction:
    case OpKind::kBias:
    case OpKind::kReLU:
    case OpKind::kDropout:
    case OpKind::kResidual:
    case OpKind::kScaledSoftmax:
    case OpKind::kLayerNorm:
    case OpKind::kEmbed:
    case OpKind::kMseLoss:
      return false;
  }
  return false;
}

std::string ToString(OpClass cls) {
  switch (cls) {
    case OpClass::kContraction:
      return "tensor contraction";
    case OpClass::kStatNorm:
      return "statistical normalization";
    case OpClass::kElementwise:
      return "element-wise";
  }
  return "?";
}

std::string ClassGlyph(OpClass cls) {
  switch (cls) {
    case OpClass::kContraction:
      return "TC";
    case OpClass::kStatNorm:
      return "SN";
    case OpClass::kElementwise:
      return "EW";
  }
  return "??";
}

std::string ToString(OpKind kind) {
  switch (kind) {
    case OpKind::kContraction: return "contraction";
    case OpKind::kBias: return "bias";
    case OpKind::kReLU: return "relu";
    case OpKind::kDropout: return "dropout";
    case OpKind::kResidual: return "residual";
    case OpKind::kScaledSoftmax: return "scaled softmax";
    case OpKind::kLayerNorm: return "layernorm";
    case OpKind::kEmbed: return "embedding";
    case OpKind::kMseLoss: return "mse loss";
    case OpKind::kBiasDW: return "bias dW";
    case OpKind::kReLUDX: return "relu dX";
    case OpKind::kDropoutDX: return "dropout dX";
    case OpKind::kResidualBwd: return "residual bwd";
    case OpKind::kScaledSoftmaxDX: return "scaled softmax dX";
    case OpKind::kLayerNormDX: return "layernorm dX";
    case OpKind::kLayerNormDW: return "layernorm dW";
    case OpKind::kEmbedDW: return "embedding dW";
  }
  return "?";
}

double FlopPerElement(OpKind kind) {
  switch (kind) {
    case OpKind::kContraction:
      check(false, "contraction flop comes from the einsum spec");
      return 0;
    case OpKind::kBias:
    case OpKind::kDropout:
    case OpKind::kResidual:
    case OpKind::kEmbed:      // one table add per output element
    case OpKind::kBiasDW:
    case OpKind::kDropoutDX:
    case OpKind::kResidualBwd:
    case OpKind::kEmbedDW:    // one scatter-add per gradient element
      return 1;
    case OpKind::kReLU:
    case OpKind::kReLUDX:
      return 0;  // comparisons and selects, no arithmetic (paper counts 0)
    case OpKind::kScaledSoftmax:
      return 6;
    case OpKind::kScaledSoftmaxDX:
      return 5;
    case OpKind::kLayerNorm:
      return 7;
    case OpKind::kLayerNormDX:
      return 9;
    case OpKind::kLayerNormDW:
      return 4;
    case OpKind::kMseLoss:
      return 3;  // diff, square-accumulate, gradient scale
  }
  return 0;
}

}  // namespace xflow::graph
