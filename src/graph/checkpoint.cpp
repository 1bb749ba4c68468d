#include "graph/checkpoint.hpp"

#include <utility>

#include "common/error.hpp"

namespace xflow::graph {

CheckpointedStackPlan PlanCheckpointedStack(
    const ModelDims& dims, StackGraphOptions base,
    const StackPlanOptionsFn& options_for, std::size_t memory_budget_bytes) {
  require(base.include_backward,
          "checkpoint planning needs the backward pass in the graph");
  require(static_cast<bool>(options_for), "options_for must be callable");
  base.recompute_layers.clear();

  auto build = [&](std::vector<int> recompute) {
    CheckpointedStackPlan p;
    StackGraphOptions o = base;
    o.recompute_layers = recompute;
    p.graph = BuildEncoderStack(dims, o);
    p.plan = PlanMemory(p.graph, options_for(p.graph));
    p.recompute_layers = std::move(recompute);
    return p;
  };

  // Grow the recompute prefix until the budget fits; keep the best (lowest)
  // peak seen, so the achieved peak is monotone in how far the budget
  // forces us down the layers.
  CheckpointedStackPlan best = build({});
  std::vector<int> recompute;
  for (int l = 0; l < base.num_layers && memory_budget_bytes > 0 &&
                  best.plan.PeakBytes() > memory_budget_bytes;
       ++l) {
    recompute.push_back(l);
    CheckpointedStackPlan candidate = build(recompute);
    if (candidate.plan.PeakBytes() < best.plan.PeakBytes()) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace xflow::graph
