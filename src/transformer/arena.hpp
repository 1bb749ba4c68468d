// The planned execution path's storage: one dataflow graph, its
// liveness plan (graph/memory_plan.hpp) and the single slab that plan
// lays out. Every activation, mask and backward temporary of a training
// step is a fixed-offset view into that slab, so steady-state steps
// perform zero tensor allocations and peak activation memory follows the
// plan instead of the naive sum-of-tensors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "graph/checkpoint.hpp"
#include "graph/memory_plan.hpp"
#include "tensor/workspace.hpp"
#include "transformer/encoder.hpp"

namespace xflow::transformer {

/// Plan options for a `Tensor<T>` encoder graph -- a single layer
/// (graph::BuildEncoder) or a whole stack (graph::BuildEncoderStack):
/// activations take sizeof(T) bytes, the fp32 layernorm statistics and
/// loss scalar 4 (the "@r" recompute-clone suffix does not hide the
/// statistic suffix); the stacked Q/K/V blocks of every layer (unprefixed
/// for a single layer, "L<l>." per stack layer, recompute clones
/// included) are grouped so the algebraically fused projections and the
/// [dQ~ dK~ dV~] gradient stack read/write one contiguous tensor; and the
/// fused spans are derived from the fusion pass itself so every
/// recognized multi-op kernel -- cross-layer EBSB merges and
/// checkpoint-clone chains included -- is planned as one atomic span and
/// launched as one kernel. The only call of fusion::FuseMaximally on the
/// planned execution path.
template <typename T>
graph::PlanOptions StackPlanOptions(const graph::DataflowGraph& graph);

/// One slab for an entire training step: the graph, its plan, and the
/// recompute layers that shaped it. Every layer's activations and
/// gradients live in this single liveness-planned workspace, so
/// transients of different layers overlap whenever their
/// store-until-backward windows permit.
template <typename T>
class StackArenaT {
 public:
  StackArenaT(graph::DataflowGraph graph, const graph::PlanOptions& options,
              std::vector<int> recompute_layers = {})
      : graph_(std::move(graph)),
        plan_(graph::PlanMemory(graph_, options)),
        recompute_layers_(std::move(recompute_layers)) {
    std::sort(recompute_layers_.begin(), recompute_layers_.end());
    workspace_.Reserve(plan_.PeakBytes());
  }
  /// Adopts a checkpoint-aware plan (graph/checkpoint.hpp).
  explicit StackArenaT(graph::CheckpointedStackPlan plan)
      : graph_(std::move(plan.graph)),
        plan_(std::move(plan.plan)),
        recompute_layers_(std::move(plan.recompute_layers)) {
    workspace_.Reserve(plan_.PeakBytes());
  }

  /// A view of container `name` at its planned offset. The caller
  /// supplies the runtime shape, which may relabel dims (the paper's
  /// j->k / p->w renames) but must match the planned byte size; the
  /// element type per view lets fp32 layernorm statistics coexist with
  /// fp16 activations in one slab.
  template <typename U>
  [[nodiscard]] Tensor<U> ViewAs(const std::string& name, Shape shape) {
    const graph::TensorPlacement& p = plan_.at(name);
    require(static_cast<std::size_t>(shape.num_elements()) * sizeof(U) ==
                p.bytes,
            StrFormat("arena view '%s' does not match its planned size",
                      name.c_str()));
    return workspace_.ViewAt<U>(p.offset, std::move(shape));
  }

  [[nodiscard]] const graph::DataflowGraph& graph() const { return graph_; }
  [[nodiscard]] const graph::MemoryPlan& plan() const { return plan_; }
  [[nodiscard]] Workspace& workspace() { return workspace_; }
  /// Layers whose forward re-executes inside backward (sorted ascending);
  /// empty when nothing is checkpointed.
  [[nodiscard]] const std::vector<int>& recompute_layers() const {
    return recompute_layers_;
  }

 private:
  graph::DataflowGraph graph_;
  graph::MemoryPlan plan_;
  Workspace workspace_;
  std::vector<int> recompute_layers_;
};

/// Whole-stack arena for EncoderStackT's graph-executor path. With
/// `memory_budget_bytes` > 0 the plan is checkpoint-aware: layers are
/// marked for recompute in order until the planned peak fits the budget
/// (graph::PlanCheckpointedStack). `options.recompute_layers` is honored
/// as-is when the budget is 0 and overwritten by the planner otherwise.
template <typename T>
StackArenaT<T> MakeStackArena(const EncoderConfig& config,
                              graph::StackGraphOptions options,
                              std::size_t memory_budget_bytes = 0);

extern template graph::PlanOptions StackPlanOptions<Half>(
    const graph::DataflowGraph&);
extern template graph::PlanOptions StackPlanOptions<float>(
    const graph::DataflowGraph&);
extern template class StackArenaT<Half>;
extern template class StackArenaT<float>;
extern template StackArenaT<Half> MakeStackArena<Half>(
    const EncoderConfig&, graph::StackGraphOptions, std::size_t);
extern template StackArenaT<float> MakeStackArena<float>(
    const EncoderConfig&, graph::StackGraphOptions, std::size_t);

}  // namespace xflow::transformer
