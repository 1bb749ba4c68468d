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
//
// Which groups launch as ONE kernel is decided by one table, LaunchOf:
// the planner declares exactly those groups as fused spans
// (transformer::StackPlanOptions), and the executor launches exactly the
// spans its plan declares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace xflow::fusion {

/// The paper's multi-op kernels (Sec. IV-A) that launch as one fused
/// kernel; every other group, kNone, runs op by op.
enum class FusedLaunch { kNone, kDRLN, kBRD, kBLNRD, kBDRB, kEBSB };

/// Recognizes the ops at `op_indices` (graph order) as one fused launch.
/// Two things must match a table entry: the ops' kinds, in order, and the
/// operand chain the fused kernel assumes -- every op's first input is
/// its predecessor's first output, except BDRB's leading bias dW, a
/// sibling that reduces another gradient. kNone otherwise. Whether the
/// ops are consecutive is the caller's to check.
FusedLaunch LaunchOf(const graph::DataflowGraph& g,
                     const std::vector<int>& op_indices);

/// One fused kernel: a group of operator indices plus its external I/O.
struct FusedKernel {
  std::string name;  // paper name when recognized (AIB, SM, BRD, ...)
  std::vector<int> op_indices;
  /// LaunchOf(op_indices): which groups the executor launches as one
  /// kernel, so the planner must treat their ops as one atomic span.
  FusedLaunch launch = FusedLaunch::kNone;
  std::vector<std::string> external_inputs;
  std::vector<std::string> external_outputs;
  /// Tensors produced and consumed strictly inside the group: their loads
  /// and stores are eliminated -- the data-movement saving of fusion.
  std::vector<std::string> interim;
  /// Reduction dims established by the group ('\0'-free names), if any.
  std::string reduction_dims;

  [[nodiscard]] bool IsContraction(const graph::DataflowGraph& g) const;
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
