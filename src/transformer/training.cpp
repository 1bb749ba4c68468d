#include "transformer/training.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "ops/embedding.hpp"

namespace xflow::transformer {

void MixedPrecisionAdam::Step(const std::string& name, TensorF& master,
                              TensorH& working, const TensorH& grad) {
  // Elements pair up by flat index, so one Shape (dims and their order)
  // is required: a matching count would accept a permuted gradient.
  if (master.shape() != working.shape() || master.shape() != grad.shape()) {
    require(false,
            StrFormat("Adam parameter '%s': master %s, working copy %s and "
                      "gradient %s must have one shape, dims and order "
                      "included",
                      name.c_str(), ToString(master.shape()).c_str(),
                      ToString(working.shape()).c_str(),
                      ToString(grad.shape()).c_str()));
  }
  auto it = state_.find(name);
  if (it == state_.end()) {
    State s;
    s.m = TensorF(master.shape());
    s.v = TensorF(master.shape());
    it = state_.emplace(name, std::move(s)).first;
  }
  State& s = it->second;
  require(s.m.shape() == master.shape(), "parameter changed shape");
  ++s.t;
  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(s.t));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(s.t));
  const AdamConfig c = config_;
  const std::int64_t n = master.size();
  float* mst = master.data();
  Half* wrk = working.data();
  const Half* grd = grad.data();
  float* m_state = s.m.data();
  float* v_state = s.v.data();
  // Runs in fixed-size chunks on the thread pool (same contract as the
  // ops engine): every element's update depends only on that element, so
  // any partitioning is bitwise deterministic at every thread count.
  constexpr std::int64_t kChunk = 4096;
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  ParallelFor(chunks, 1, [&](std::int64_t ci) {
    const std::int64_t begin = ci * kChunk;
    const std::int64_t len = std::min(n, begin + kChunk) - begin;
    // The fp16 conversions run in loops of their own, which vectorize;
    // the update loop cannot (std::sqrt keeps its errno path).
    float g[kChunk];
    XFLOW_SIMD
    for (std::int64_t i = 0; i < len; ++i) g[i] = float(grd[begin + i]);
    for (std::int64_t i = 0; i < len; ++i) {
      float& m = m_state[begin + i];
      float& v = v_state[begin + i];
      m = c.beta1 * m + (1.0f - c.beta1) * g[i];
      v = c.beta2 * v + (1.0f - c.beta2) * g[i] * g[i];
      const float m_hat = m / bc1;
      const float v_hat = v / bc2;
      mst[begin + i] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
    }
    XFLOW_SIMD
    for (std::int64_t i = 0; i < len; ++i) {
      wrk[begin + i] = Half(mst[begin + i]);
    }
  });
}

std::int64_t MixedPrecisionAdam::steps(const std::string& name) const {
  const auto it = state_.find(name);
  return it == state_.end() ? 0 : it->second.t;
}

float WarmupSchedule::At(std::int64_t t) const {
  require(t >= 1, "steps are 1-based");
  if (warmup_ <= 0) return base_lr_;
  const auto tf = static_cast<float>(t);
  const auto wf = static_cast<float>(warmup_);
  if (t <= warmup_) return base_lr_ * tf / wf;
  return base_lr_ * std::sqrt(wf / tf);
}

double ClipGradNorm(const std::vector<TensorH*>& grads, double max_norm) {
  require(max_norm > 0, "max_norm must be positive");
  double sum_sq = 0;
  for (const TensorH* g : grads) {
    for (std::int64_t i = 0; i < g->size(); ++i) {
      const double v = float(g->data()[i]);
      sum_sq += v * v;
    }
  }
  const double norm = std::sqrt(sum_sq);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (TensorH* g : grads) {
      for (std::int64_t i = 0; i < g->size(); ++i) {
        g->data()[i] = Half(float(g->data()[i]) * scale);
      }
    }
  }
  return norm;
}

double MseLoss(const TensorH& y, const TensorH& target, TensorH& d_y) {
  return ops::MseLossKernel(y, target, d_y);
}

}  // namespace xflow::transformer
