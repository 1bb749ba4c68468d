// Mixed-precision training utilities (Sec. III-D): fp32 master weights,
// fp16 working copies and gradients, Adam updates in fp32.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace xflow::transformer {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

/// Adam with per-parameter moment state. The master copy stays fp32; after
/// each step the fp16 working copy is refreshed from it (standard mixed
/// precision following Micikevicius et al., as the paper trains).
class MixedPrecisionAdam {
 public:
  explicit MixedPrecisionAdam(AdamConfig config = {}) : config_(config) {}

  /// One update for one parameter. `master`, `working` and `grad` must
  /// have one Shape, dims and order included (InvalidArgument naming the
  /// parameter and the shapes otherwise), and keep it across calls with
  /// the same name.
  void Step(const std::string& name, TensorF& master, TensorH& working,
            const TensorH& grad);

  [[nodiscard]] std::int64_t steps(const std::string& name) const;

 private:
  struct State {
    TensorF m, v;
    std::int64_t t = 0;
  };
  AdamConfig config_;
  std::map<std::string, State> state_;
};

/// Mean-squared-error loss; fills d_y = 2 (y - target) / N and returns the
/// scalar loss.
double MseLoss(const TensorH& y, const TensorH& target, TensorH& d_y);

/// Linear-warmup then inverse-square-root decay, the schedule transformer
/// training uses (Vaswani et al.; BERT uses the linear-decay variant).
class WarmupSchedule {
 public:
  WarmupSchedule(float base_lr, std::int64_t warmup_steps)
      : base_lr_(base_lr), warmup_(warmup_steps) {}

  /// Learning rate at 1-based step `t`.
  [[nodiscard]] float At(std::int64_t t) const;

 private:
  float base_lr_;
  std::int64_t warmup_;
};

/// Global-norm gradient clipping over a set of gradient tensors. Returns
/// the pre-clip norm; gradients are scaled in place when it exceeds
/// `max_norm`.
double ClipGradNorm(const std::vector<TensorH*>& grads, double max_norm);

}  // namespace xflow::transformer
