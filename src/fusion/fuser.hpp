// Operator fusion (Sec. IV): detects fusable groups in a dataflow graph via
// iteration-space compatibility and produces the paper's fused kernels.
//
// Rules implemented (Sec. IV, Fig. 3):
//  * Tensor contractions are fusion barriers (only simple scaling is ever
//    folded into them, Sec. IV-C).
//  * A chain continues while iteration spaces are compatible: equal
//    independent dims, or one operator adds a reduction over dims the other
//    iterates independently ("fuse until a reduction dimension or iteration
//    space changes").
//  * Joining requires a dataflow link (consumes a group output or shares an
//    input with a group member).
//  * Launch merge: a lone all-reduce operator (e.g. bias dW) merges into an
//    adjacent group that ends in a reduction over the same dims, sharing
//    one kernel's warp-reduction machinery (gives the paper's BDRB).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace xflow::fusion {

/// One fused kernel: a group of operator indices plus its external I/O.
struct FusedKernel {
  std::string name;  // paper name when recognized (AIB, SM, BRD, ...)
  std::vector<int> op_indices;
  std::vector<std::string> external_inputs;
  std::vector<std::string> external_outputs;
  /// Tensors produced and consumed strictly inside the group: their loads
  /// and stores are eliminated -- the data-movement saving of fusion.
  std::vector<std::string> interim;
  /// Reduction dims established by the group ('\0'-free names), if any.
  std::string reduction_dims;

  [[nodiscard]] bool IsContraction(const graph::DataflowGraph& g) const;
  /// True exactly for the recognized multi-op paper kernels. The executor
  /// launches each as one kernel, so the planner and verifier treat its
  /// ops as one atomic span; any other group runs op by op.
  [[nodiscard]] bool LaunchesAsOneKernel() const;
};

struct FusionResult {
  std::vector<FusedKernel> kernels;

  /// Elements moved by the fused schedule (sum of external I/O).
  std::int64_t FusedElementsMoved(const graph::DataflowGraph& g) const;
  /// Elements moved by the standard per-operator schedule, counting the
  /// softmax composites at framework kernel granularity (scale / softmax /
  /// dropout as separate kernels), as PyTorch executes them.
  std::int64_t StandardElementsMoved(const graph::DataflowGraph& g) const;
  /// 1 - fused/standard: the paper reports ~22.91% for the encoder layer.
  double DataMovementReduction(const graph::DataflowGraph& g) const;
};

/// Runs the fusion pass over a graph.
FusionResult FuseMaximally(const graph::DataflowGraph& g);

/// True when the two operators' iteration spaces are fusion-compatible.
bool IterationSpacesCompatible(const graph::OpNode& a, const graph::OpNode& b);

}  // namespace xflow::fusion
