// Builders for the paper's dataflow graphs: multi-head attention (Fig. 1),
// the full BERT encoder layer, forward + backward (Fig. 2 / Table III),
// and the whole-stack training-step graph (embedding -> N layers -> loss).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace xflow::graph {

/// Model dimensions, named as in the paper (Sec. III-D):
/// B=8, J=K=512, H=16, P=W=64, I=P*H=1024, U=4I=4096 for BERT-large.
struct ModelDims {
  std::int64_t b = 8;     // mini-batch
  std::int64_t j = 512;   // query sequence length
  std::int64_t k = 512;   // key/value sequence length
  std::int64_t h = 16;    // attention heads
  std::int64_t p = 64;    // key/query projection size (w = p for values)
  std::int64_t i = 1024;  // embedding size
  std::int64_t u = 4096;  // feed-forward intermediate size

  static ModelDims BertLarge() { return {}; }
  /// The paper's second configuration (Sec. VI-C): B=96, L=128.
  static ModelDims BertLargeB96() {
    ModelDims d;
    d.b = 96;
    d.j = d.k = 128;
    return d;
  }
  /// BERT-base (Devlin et al.): 12 heads of 64, I=768, U=3072, with the
  /// paper-style batch 8 over sequence length 128. The memory planner's
  /// reported peak-activation reduction is quoted on this configuration.
  static ModelDims BertBase() {
    ModelDims d;
    d.b = 8;
    d.j = d.k = 128;
    d.h = 12;
    d.p = 64;
    d.i = 768;
    d.u = 3072;
    return d;
  }
  /// Reduced dimensions for unit tests (numerics are size-independent).
  static ModelDims Tiny() {
    ModelDims d;
    d.b = 2;
    d.j = d.k = 6;
    d.h = 2;
    d.p = 4;
    d.i = 8;
    d.u = 12;
    return d;
  }
};

/// The algebraic-fusion choice for the Q/K/V input projections (Sec. IV-D).
enum class AlgebraicFusion { kNone, kQK, kQKV };

/// Multi-head attention graph with distinct query/key/value inputs
/// (general attention), matching the paper's Fig. 1 -- the graph
/// MhaLayerT plans and executes. With `include_backward` the
/// backpropagation operators are appended after the forward ones, so the
/// memory planner covers the whole step (saved activations live exactly
/// until the backward op that consumes them instead of being pinned for
/// the step).
DataflowGraph BuildMha(const ModelDims& dims, bool include_backward);

/// The forward-only Fig. 1 graph (the figure's own scope).
DataflowGraph BuildMhaForward(const ModelDims& dims);

/// Full BERT encoder layer graph (self-attention + feed-forward), at the
/// operator granularity of Table III. With `include_backward`, the
/// backpropagation operators are appended in the paper's order.
DataflowGraph BuildEncoder(const ModelDims& dims,
                           AlgebraicFusion fusion = AlgebraicFusion::kQKV,
                           bool include_backward = true);

/// Options for the whole-stack training-step graph (BuildEncoderStack).
struct StackGraphOptions {
  int num_layers = 1;
  bool include_backward = true;
  /// Non-zero folds the token+position embedding in front of layer 0: the
  /// graph gains weight tables `token_table`/`pos_table` (and their
  /// gradients), `x` becomes the embedding op's output, and the backward
  /// pass ends with the table-gradient scatter (`embed dW`). Token ids are
  /// runtime data, bound on the executor (GraphExecutorT::BindTokens).
  std::int64_t vocab = 0;
  /// Folds the MSE loss head after the top layer: the graph gains a
  /// `target` input and a one-element fp32 `loss` output, and `d_y`
  /// becomes the loss op's output instead of a graph input.
  bool include_loss = false;
  /// Layers whose interior saved activations are recomputed in the
  /// backward pass instead of stored: the layer's forward operators are
  /// cloned (containers suffixed "@r", OpNode::recompute_of set) directly
  /// before its backward operators, which then read the "@r" versions, so
  /// the originals die inside the forward pass and their bytes recycle.
  /// Layer boundaries (`L<l>.y`) are always stored. Chosen under a byte
  /// budget by the checkpoint planner (graph/checkpoint.hpp).
  std::vector<int> recompute_layers;
};

/// One DataflowGraph for the entire training step: embedding (optional) ->
/// `num_layers` encoder layers -> loss head (optional), forward+backward.
/// Layer l's containers and operators are prefixed "L<l>."; layer l's `x`
/// IS layer l-1's `y` (one container, no copies) and layer l's `d_y` IS
/// layer l+1's `d_x`. Planning this graph as one arena lets cross-layer
/// transients overlap -- only saved activations keep distinct bytes.
DataflowGraph BuildEncoderStack(const ModelDims& dims,
                                const StackGraphOptions& options);

}  // namespace xflow::graph
