#include "transformer/mha.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "graph/executor.hpp"

namespace xflow::transformer {

namespace {

/// The inputs and the input gradients are the caller's tensors, bound by
/// reference like the weights; everything else lives in the slab.
template <typename T>
graph::PlanOptions MhaPlanOptions() {
  graph::PlanOptions options;
  options.default_elem_bytes = sizeof(T);
  options.exclude = {"q", "k", "v", "d_out", "d_q", "d_k", "d_v"};
  return options;
}

}  // namespace

template <typename T>
MhaParamsT<T> MhaParamsT<T>::Init(const graph::ModelDims& d,
                                  std::uint64_t seed) {
  auto scaled = [&](Shape shape, std::int64_t fan_in,
                    std::uint64_t s) -> Tensor<T> {
    auto t = Tensor<T>::Random(std::move(shape), s);
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (std::int64_t e = 0; e < t.size(); ++e) {
      t.data()[e] = T(float(t.data()[e]) * scale);
    }
    return t;
  };
  MhaParamsT<T> p;
  p.wq = scaled(Shape("phi", {d.p, d.h, d.i}), d.i, seed + 1);
  p.wk = scaled(Shape("phi", {d.p, d.h, d.i}), d.i, seed + 2);
  p.wv = scaled(Shape("whi", {d.p, d.h, d.i}), d.i, seed + 3);
  p.wo = scaled(Shape("whi", {d.p, d.h, d.i}), d.p * d.h, seed + 4);
  p.bq = scaled(Shape("ph", {d.p, d.h}), d.i, seed + 5);
  p.bk = scaled(Shape("ph", {d.p, d.h}), d.i, seed + 6);
  p.bv = scaled(Shape("wh", {d.p, d.h}), d.i, seed + 7);
  p.bo = scaled(Shape("i", {d.i}), d.i, seed + 8);
  return p;
}

template <typename T>
std::vector<std::pair<std::string, Tensor<T>*>> MhaParamsT<T>::Named() {
  return {{"wq", &wq}, {"wk", &wk}, {"wv", &wv}, {"wo", &wo},
          {"bq", &bq}, {"bk", &bk}, {"bv", &bv}, {"bo", &bo}};
}

template <typename T>
MhaLayerT<T>::MhaLayerT(MhaConfig config, MhaParamsT<T> params)
    : config_(std::move(config)),
      params_(std::move(params)),
      arena_(graph::BuildMha(config_.dims, /*include_backward=*/true),
             MhaPlanOptions<T>()) {
  graph::ExecutorOptions opts;
  opts.causal = config_.causal;
  opts.dropout_prob = config_.dropout_prob;
  opts.attn_scale = 1.0f / std::sqrt(static_cast<float>(config_.dims.p));
  std::uint64_t seed_state = config_.seed;
  opts.dropout_seeds = {SplitMix64(seed_state)};  // the one SM site
  executor_ = std::make_unique<graph::GraphExecutorT<T>>(
      arena_.graph(), &arena_.plan(), &arena_.workspace(), std::move(opts));
}

template <typename T>
MhaLayerT<T>::~MhaLayerT() = default;

template <typename T>
const Tensor<T>& MhaLayerT<T>::Forward(const Tensor<T>& q, const Tensor<T>& k,
                                       const Tensor<T>& v) {
  for (auto& [name, tensor] : params_.Named()) {
    executor_->BindInput(name, *tensor);
  }
  executor_->BindInput("q", q);
  executor_->BindInput("k", k);
  executor_->BindInput("v", v);
  executor_->Forward();
  out_ = View("out");
  return out_;
}

template <typename T>
void MhaLayerT<T>::Backward(const Tensor<T>& d_out, MhaGradientsT<T>& grads) {
  executor_->BindInput("d_out", d_out);
  // Gradients take their container's shape, reusing storage already
  // shaped; the executor overwrites every entry.
  const auto bind_output = [&](const std::string& name, Tensor<T>& t) {
    t.EnsureShape(arena_.graph().tensor(name).shape);
    executor_->BindOutput(name, t);
  };
  for (auto& [name, tensor] : grads.params.Named()) {
    bind_output("d_" + name, *tensor);
  }
  bind_output("d_q", grads.d_q);
  bind_output("d_k", grads.d_k);
  bind_output("d_v", grads.d_v);
  executor_->Backward();
}

template <typename T>
Tensor<T> MhaLayerT<T>::View(const std::string& name) {
  return arena_.template ViewAs<T>(name, arena_.graph().tensor(name).shape);
}

template struct MhaParamsT<Half>;
template struct MhaParamsT<float>;
template class MhaLayerT<Half>;
template class MhaLayerT<float>;

}  // namespace xflow::transformer
