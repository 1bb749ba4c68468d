// Standalone multi-head attention with distinct query/key/value inputs --
// the paper's Fig. 1 primitive ("MHA is also used outside of transformers,
// so understanding its performance in isolation can inform other models").
//
// Supports the three MHA classes of Sec. II-B1:
//   general attention       (q, k, v distinct),
//   encoder/decoder attention (k == v),
//   self-attention          (q == k == v; what EncoderLayer uses inline),
// plus the optional causal masking step.
//
// The layer runs its planned dataflow graph, graph::BuildMha(dims, true),
// over one liveness-planned slab (StackArenaT) with one graph executor.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "tensor/tensor.hpp"
#include "transformer/arena.hpp"

namespace xflow::graph {
template <typename T>
class GraphExecutorT;  // graph/executor.hpp
}  // namespace xflow::graph

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
};

template <typename T>
struct MhaGradientsT {
  MhaParamsT<T> params;
  Tensor<T> d_q, d_k, d_v;
};

template <typename T>
class MhaLayerT {
 public:
  /// Builds and plans the graph and creates its executor, once; throws
  /// InvalidArgument for a dropout probability outside [0, 1].
  MhaLayerT(MhaConfig config, MhaParamsT<T> params);
  ~MhaLayerT();

  /// General attention: q is [i, b, j]; k and v are [i, b, k]. The inputs
  /// and params() are bound by reference, not copied, so they must stay
  /// valid and unmoved until Backward: pass named tensors, not temporaries.
  /// Returns the arena's `out` view [i, b, j], overwritten by the next
  /// Forward.
  const Tensor<T>& Forward(const Tensor<T>& q, const Tensor<T>& k,
                           const Tensor<T>& v);

  /// Backward from d_out [i, b, j]; must follow a Forward (InvalidArgument
  /// otherwise). Fills parameter gradients and the gradients of all three
  /// inputs; every one of them stays owning.
  void Backward(const Tensor<T>& d_out, MhaGradientsT<T>& grads);

  /// Container `name` of the planned graph as an arena view, e.g. the
  /// saved "softmax_saved" after Forward. Backward recycles the bytes of
  /// saved activations; copy what must outlive that.
  [[nodiscard]] Tensor<T> View(const std::string& name);

  [[nodiscard]] const MhaConfig& config() const { return config_; }
  [[nodiscard]] MhaParamsT<T>& params() { return params_; }

 private:
  MhaConfig config_;
  MhaParamsT<T> params_;
  StackArenaT<T> arena_;
  std::unique_ptr<graph::GraphExecutorT<T>> executor_;
  Tensor<T> out_;  // storage behind the reference Forward returns
};

using MhaParams = MhaParamsT<Half>;
using MhaGradients = MhaGradientsT<Half>;
using MhaLayer = MhaLayerT<Half>;

extern template class MhaLayerT<Half>;
extern template class MhaLayerT<float>;
extern template struct MhaParamsT<Half>;
extern template struct MhaParamsT<float>;

}  // namespace xflow::transformer
