// Dataflow graphs for training (the SDFG-lite of our recipe, Sec. III-A).
//
// Containers (named tensors) and operators form a bipartite graph; every
// operator edge represents exact data movement, so flop counts and access
// volumes -- the annotations of the paper's Figs. 1 and 2 -- are derivable
// by inspection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/op.hpp"
#include "tensor/shape.hpp"

namespace xflow::graph {

/// A data container node.
struct TensorNode {
  std::string name;
  Shape shape;
  bool is_weight = false;  // parameters (and their gradients)
};

/// An operator node. `independent_dims`/`reduction_dims` define its
/// iteration space, the basis of the fusion rules (Sec. IV).
struct OpNode {
  std::string name;
  OpKind kind = OpKind::kContraction;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::string einsum;  // contractions only
  std::vector<DimExt> independent_dims;
  std::vector<DimExt> reduction_dims;
  double flop = 0;
  /// Tensors, among `outputs`, that exist only to be stashed for the backward
  /// pass (e.g. dropout masks); they count toward data movement but carry no
  /// dataflow into the next forward operator.
  std::vector<std::string> saved_outputs;
  /// Non-empty when this op is a checkpoint-recompute clone: the name of the
  /// forward op it re-executes just before the backward pass. Clones reuse
  /// the original's dropout seed (bitwise-identical masks) and any clone
  /// output nothing consumes dies at its producer instead of living to the
  /// end of the graph.
  std::string recompute_of;

  [[nodiscard]] OpClass cls() const { return ClassOf(kind); }
};

/// Operator + container graph in topological order.
class DataflowGraph {
 public:
  /// Adds a container. Name must be unique.
  void AddTensor(std::string name, Shape shape, bool is_weight = false);
  /// Adds an operator; all inputs must already exist, outputs must have been
  /// added via AddTensor, and each tensor may have at most one producer.
  void AddOp(OpNode op);
  /// Adds an operator without AddOp's invariant checks. Exists so tests can
  /// build deliberately-broken graphs for the verifier; never use it to
  /// construct a graph meant to execute.
  void AddOpUnchecked(OpNode op);

  [[nodiscard]] bool HasTensor(const std::string& name) const;
  [[nodiscard]] const TensorNode& tensor(const std::string& name) const;
  [[nodiscard]] const std::vector<OpNode>& ops() const { return ops_; }
  [[nodiscard]] const std::map<std::string, TensorNode>& tensors() const {
    return tensors_;
  }
  [[nodiscard]] const OpNode& op(const std::string& name) const;
  /// Index of the op named `name`, or -1 when the graph has none.
  [[nodiscard]] int OpIndex(const std::string& name) const;

  /// Index of the first backward op (ops().size() for forward-only
  /// graphs): the first gradient-computing kind (IsBackwardOp) or
  /// checkpoint-recompute clone, which runs inside the backward pass. The
  /// executor's Forward()/Backward() split; the planner and verifier
  /// treat it as a synchronization point.
  [[nodiscard]] int BackwardBegin() const;

  /// Index of the op producing `tensor_name`, or -1 for graph inputs.
  [[nodiscard]] int ProducerOf(const std::string& tensor_name) const;
  /// Indices of ops consuming `tensor_name`.
  [[nodiscard]] std::vector<int> ConsumersOf(
      const std::string& tensor_name) const;

  /// Total elements read by an op (the "Input (1e6)" column of Table III).
  [[nodiscard]] std::int64_t InputElements(const OpNode& op) const;
  /// Total elements written (the "Output (1e6)" column).
  [[nodiscard]] std::int64_t OutputElements(const OpNode& op) const;

 private:
  std::map<std::string, TensorNode> tensors_;
  std::vector<OpNode> ops_;
  std::map<std::string, int> producer_;  // tensor -> op index
};

}  // namespace xflow::graph
