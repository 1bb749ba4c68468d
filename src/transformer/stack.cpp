#include "transformer/stack.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"

namespace xflow::transformer {

template <typename T>
EncoderStackT<T>::EncoderStackT(EncoderConfig config, int num_layers,
                                std::uint64_t seed) {
  require(num_layers > 0, "stack needs at least one layer");
  layers_.reserve(static_cast<std::size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    EncoderConfig layer_cfg = config;
    layer_cfg.seed = config.seed + 1000 * static_cast<std::uint64_t>(l);
    layers_.emplace_back(
        layer_cfg,
        EncoderParamsT<T>::Init(config.dims,
                                seed + static_cast<std::uint64_t>(l)));
  }
}

template <typename T>
const Tensor<T>& EncoderStackT<T>::Forward(
    const Tensor<T>& x, std::vector<EncoderActivationsT<T>>& acts) const {
  // Reuse existing entries (and their owning buffers) when the caller
  // iterates steps; only resize on first use.
  if (acts.size() != layers_.size()) acts.assign(layers_.size(), {});
  const Tensor<T>* cur = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].Forward(*cur, acts[l]);
    cur = &acts[l].y;
  }
  return acts.back().y;
}

template <typename T>
const Tensor<T>& EncoderStackT<T>::Backward(
    const Tensor<T>& d_y, const std::vector<EncoderActivationsT<T>>& acts,
    std::vector<EncoderGradientsT<T>>& grads) const {
  require(acts.size() == layers_.size(),
          "activations must come from this stack's Forward");
  if (grads.size() != layers_.size()) grads.assign(layers_.size(), {});
  const Tensor<T>* grad = &d_y;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    layers_[l].Backward(*grad, acts[l], grads[l]);
    grad = &grads[l].d_x;
  }
  return *grad;
}

template <typename T>
EncoderStackT<T>::EncoderStackT(EncoderStackT&&) noexcept = default;
template <typename T>
EncoderStackT<T>& EncoderStackT<T>::operator=(EncoderStackT&&) noexcept =
    default;
template <typename T>
EncoderStackT<T>::~EncoderStackT() = default;

template <typename T>
graph::GraphExecutorT<T>& EncoderStackT<T>::Executor(
    StackArenaT<T>& arena) const {
  if (stack_executor_ == nullptr || stack_arena_ != &arena ||
      stack_slab_ != arena.workspace().data()) {
    const EncoderConfig& cfg = layers_.front().config();
    graph::ExecutorOptions opts;
    opts.use_fused_kernels = cfg.use_fused_kernels;
    opts.causal = cfg.causal;
    opts.dropout_prob = cfg.dropout_prob;
    opts.ln_eps = cfg.ln_eps;
    opts.attn_scale = 1.0f / std::sqrt(static_cast<float>(cfg.dims.p));
    // One four-seed block per layer, in layer order -- exactly the streams
    // each owning layer uses, so whole-stack execution is bitwise identical
    // to the per-layer path. Recompute clones reuse
    // their original's seed (executor rule), so checkpointing never
    // shifts this schedule.
    for (const EncoderLayerT<T>& layer : layers_) {
      for (const std::uint64_t s : EncoderDropoutSeeds(layer.config().seed)) {
        opts.dropout_seeds.push_back(s);
      }
    }
    stack_executor_ = std::make_unique<graph::GraphExecutorT<T>>(
        &arena.graph(), &arena.plan(), &arena.workspace(), std::move(opts));
    stack_arena_ = &arena;
    stack_slab_ = arena.workspace().data();
    // Weights are stable across steps: bind them once per executor, under
    // their stacked names.
    auto& self = const_cast<EncoderStackT<T>&>(*this);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      for (auto& [name, tensor] : self.layers_[l].params().Named()) {
        stack_executor_->BindInput(StrFormat("L%zu.%s", l, name.c_str()),
                                   *tensor);
      }
    }
  }
  return *stack_executor_;
}

template <typename T>
const Tensor<T>& EncoderStackT<T>::Forward(const Tensor<T>& x,
                                           StackArenaT<T>& arena) const {
  require(arena.graph().HasTensor("x") && arena.graph().ProducerOf("x") < 0,
          "whole-stack Forward(x, arena) needs 'x' as the graph input -- "
          "graphs with an embedding head take token ids via "
          "Executor(arena).BindTokens");
  auto& ex = Executor(arena);
  ex.BindInput("x", x);
  ex.Forward();
  const auto& d = layers_.front().config().dims;
  y_view_ = arena.template ViewAs<T>(
      StrFormat("L%zu.y", layers_.size() - 1), Shape("ibj", {d.i, d.b, d.j}));
  return y_view_;
}

template <typename T>
const Tensor<T>& EncoderStackT<T>::Backward(
    const Tensor<T>& d_y, StackArenaT<T>& arena,
    std::vector<EncoderGradientsT<T>>& grads) const {
  require(arena.graph().HasTensor("d_y") &&
              arena.graph().ProducerOf("d_y") < 0,
          "whole-stack Backward(d_y, ...) needs 'd_y' as a graph input -- "
          "graphs with a loss head produce d_y themselves; just call "
          "Executor(arena).Backward()");
  require(stack_executor_ != nullptr && stack_arena_ == &arena,
          "whole-stack Backward needs the arena Forward ran on");
  auto& ex = Executor(arena);
  ex.BindInput("d_y", d_y);
  const auto& d = layers_.front().config().dims;
  if (grads.size() != layers_.size()) grads.assign(layers_.size(), {});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto& gp = grads[l].params;
    gp.EnsureShapes(d);  // accumulators; the executor overwrites every entry
    for (auto& [name, tensor] : gp.Named()) {
      ex.BindOutput(StrFormat("L%zu.d_%s", l, name.c_str()), *tensor);
    }
  }
  ex.Backward();
  const Shape ibj("ibj", {d.i, d.b, d.j});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    grads[l].d_x =
        arena.template ViewAs<T>(StrFormat("L%zu.d_x", l), ibj);
  }
  dx_view_ = arena.template ViewAs<T>("L0.d_x", ibj);
  return dx_view_;
}

template <typename T>
std::vector<std::pair<std::string, Tensor<T>*>>
EncoderStackT<T>::NamedParams() {
  std::vector<std::pair<std::string, Tensor<T>*>> out;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (auto& [name, t] : layers_[l].params().Named()) {
      out.emplace_back(
          StrFormat("layer%zu.%s", l, name.c_str()), t);
    }
  }
  return out;
}

template class EncoderStackT<Half>;
template class EncoderStackT<float>;

}  // namespace xflow::transformer
