// Checkpoint-aware whole-stack planning: choose which layers store their
// saved activations until backward and which re-derive them in the
// backward pass, so the planned arena fits a byte budget. Recompute is
// chosen at layer granularity (a layer's forward operators re-execute as a
// block directly before its backward operators -- the classic
// gradient-checkpointing scheme of Chen et al. 2016), in layer order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/builder.hpp"
#include "graph/memory_plan.hpp"

namespace xflow::graph {

/// A whole-stack graph + plan under (or as close as achievable to) the
/// requested budget, with the layers that produced it.
struct CheckpointedStackPlan {
  DataflowGraph graph;
  MemoryPlan plan;
  std::vector<int> recompute_layers;  // sorted ascending
};

/// Builds PlanOptions for a given stack graph. Injected by the caller
/// (e.g. transformer::StackPlanOptions<T>) because element sizes, groups
/// and fused spans are a runtime concern the graph layer cannot know.
using StackPlanOptionsFn = std::function<PlanOptions(const DataflowGraph&)>;

/// Plans the whole-stack graph of `base`, checkpointing layers until the
/// planned peak fits `memory_budget_bytes` (0 = no budget: plan with
/// everything stored). It tries the recompute prefixes {0}, {0,1}, ... in
/// turn. Layer order is enough: BuildEncoderStack builds every layer from
/// the one `dims`, so all layers free the same bytes for the same
/// re-execution and any per-layer cost ties. The result is the best
/// (lowest) peak seen over those prefixes -- so a smaller budget never
/// yields a smaller recompute set, and the achieved peak is monotone
/// non-increasing as the budget shrinks. When even full recompute misses
/// the budget, the best plan is returned anyway; callers can compare
/// plan.PeakBytes() to the budget. `base.recompute_layers` is overwritten;
/// `base.include_backward` must be set.
CheckpointedStackPlan PlanCheckpointedStack(
    const ModelDims& dims, StackGraphOptions base,
    const StackPlanOptionsFn& options_for, std::size_t memory_budget_bytes);

}  // namespace xflow::graph
