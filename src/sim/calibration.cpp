#include "sim/calibration.hpp"

#include <map>
#include <string>

#include "common/error.hpp"

namespace xflow::sim {

double TunedKernelBandwidthFrac(std::string_view fused_kernel_name) {
  // Derived from Table III "Ours" times and exact per-kernel traffic:
  // frac = bytes_moved / (time * 900 GB/s). Streaming kernels (BEI, AIB,
  // BRD) approach peak; per-column reductions (BSB, EBSB, BAOB) are far
  // from it; softmax-family kernels sit in between (exp + RNG overhead).
  static const std::map<std::string, double, std::less<>> kFrac = {
      {"AIB", 0.85},  {"SM", 0.69},    {"DRLN", 0.46},  {"BRD", 0.81},
      {"BDRLN", 0.46}, {"BSB", 0.125}, {"BLNRD", 0.66}, {"BDRB", 0.44},
      {"EBSB", 0.15}, {"BS", 0.70},    {"BEI", 0.90},   {"BAOB", 0.24},
      {"BAIB", 0.72},
  };
  const auto it = kFrac.find(fused_kernel_name);
  require(it != kFrac.end(), "unknown fused kernel name");
  return it->second;
}

double FrameworkBandwidthFrac(graph::OpKind kind) {
  // Derived from Table III "PyTorch" per-operator times the same way.
  using graph::OpKind;
  switch (kind) {
    case OpKind::kContraction:
      check(false, "contractions use the tensor-core model");
      return 0;
    case OpKind::kBias: return 0.60;
    case OpKind::kReLU: return 0.67;
    case OpKind::kDropout: return 0.85;
    case OpKind::kResidual: return 0.78;
    case OpKind::kScaledSoftmax: return 0.66;
    case OpKind::kLayerNorm: return 0.30;
    case OpKind::kBiasDW: return 0.45;
    case OpKind::kReLUDX: return 0.67;
    case OpKind::kDropoutDX: return 0.85;
    case OpKind::kResidualBwd: return 0.78;
    case OpKind::kScaledSoftmaxDX: return 0.38;
    case OpKind::kLayerNormDX: return 0.36;
    case OpKind::kLayerNormDW: return 0.10;
    case OpKind::kEmbed: return 0.55;    // table gather
    case OpKind::kEmbedDW: return 0.40;  // scatter-add
    case OpKind::kMseLoss: return 0.70;  // streaming reduction
  }
  return 0.5;
}

double FlopPerByteOverhead(graph::OpKind kind) {
  using graph::OpKind;
  switch (kind) {
    case OpKind::kScaledSoftmax:
      return 12.0;  // exp + cuRAND Philox rounds per element
    case OpKind::kScaledSoftmaxDX:
      return 6.0;
    case OpKind::kDropout:
      return 8.0;   // Philox rounds per element
    case OpKind::kLayerNorm:
    case OpKind::kLayerNormDX:
      return 3.0;   // rsqrt + two-pass statistics
    default:
      return 0.5;
  }
}

}  // namespace xflow::sim
