#include "transformer/arena.hpp"

#include <string_view>

#include "fusion/fuser.hpp"
#include "graph/builder.hpp"

namespace xflow::transformer {

template <typename T>
graph::PlanOptions StackPlanOptions(const graph::DataflowGraph& graph) {
  graph::PlanOptions options;
  options.default_elem_bytes = sizeof(T);
  options.elem_bytes = [](const graph::TensorNode& t) -> std::size_t {
    // Layernorm statistics and the loss scalar stay fp32 regardless of the
    // activation type; the "@r" recompute-clone suffix must not hide the
    // statistic suffix.
    std::string_view name = t.name;
    if (name.ends_with("@r")) name.remove_suffix(2);
    if (name.ends_with("_mean") || name.ends_with("_rstd") ||
        name == "loss") {
      return sizeof(float);
    }
    return sizeof(T);
  };
  // Stacked Q/K/V projections: unprefixed for a single-layer graph, one
  // "L<l>." set per stack layer, plus the recompute clones of checkpointed
  // layers (the clone contraction writes the "@r" stack exactly as the
  // original wrote the stored one).
  std::vector<std::string> prefixes;
  if (graph.HasTensor("qq")) prefixes.emplace_back();
  for (int l = 0; graph.HasTensor(StrFormat("L%d.qq", l)); ++l) {
    prefixes.push_back(StrFormat("L%d.", l));
  }
  for (const std::string& p : prefixes) {
    options.groups.push_back(
        {p + "qkv_proj", {p + "qq", p + "kk", p + "vv"}});
    options.groups.push_back(
        {p + "d_qkv_proj", {p + "d_qq", p + "d_kk", p + "d_vv"}});
    if (graph.HasTensor(p + "qq@r")) {
      options.groups.push_back(
          {p + "qkv_proj@r", {p + "qq@r", p + "kk@r", p + "vv@r"}});
    }
  }
  // Backward takes d_y by reference when it is a graph input; with a loss
  // head the graph produces d_y itself and it must be planned. The loss
  // target is always caller-provided.
  if (graph.HasTensor("d_y") && graph.ProducerOf("d_y") < 0) {
    options.exclude.push_back("d_y");
  }
  if (graph.HasTensor("target")) options.exclude.push_back("target");
  // The fused spans come from the fusion pass itself instead of a
  // hand-maintained list: every group it forms that fusion::LaunchOf
  // recognizes. They are the schedule -- the executor launches exactly
  // these spans -- and each kernel reads its span's inputs while writing
  // its outputs, so the planner must not recycle one into the other. This
  // covers the cross-layer EBSB merge and the checkpoint-clone chains
  // automatically.
  const fusion::FusionResult fused = fusion::FuseMaximally(graph);
  for (const fusion::FusedKernel& kernel : fused.kernels) {
    if (kernel.launch == fusion::FusedLaunch::kNone) continue;
    std::vector<std::string> span;
    span.reserve(kernel.op_indices.size());
    for (const int idx : kernel.op_indices) {
      span.push_back(graph.ops()[static_cast<std::size_t>(idx)].name);
    }
    options.fused_spans.push_back(std::move(span));
  }
  return options;
}

template <typename T>
StackArenaT<T> MakeStackArena(const EncoderConfig& config,
                              graph::StackGraphOptions options,
                              std::size_t memory_budget_bytes) {
  if (memory_budget_bytes > 0) {
    return StackArenaT<T>(graph::PlanCheckpointedStack(
        config.dims, std::move(options),
        [](const graph::DataflowGraph& g) { return StackPlanOptions<T>(g); },
        memory_budget_bytes));
  }
  auto graph = graph::BuildEncoderStack(config.dims, options);
  const auto plan_options = StackPlanOptions<T>(graph);
  return StackArenaT<T>(std::move(graph), plan_options,
                        std::move(options.recompute_layers));
}

template graph::PlanOptions StackPlanOptions<Half>(const graph::DataflowGraph&);
template graph::PlanOptions StackPlanOptions<float>(
    const graph::DataflowGraph&);
template class StackArenaT<Half>;
template class StackArenaT<float>;
template StackArenaT<Half> MakeStackArena<Half>(const EncoderConfig&,
                                                graph::StackGraphOptions,
                                                std::size_t);
template StackArenaT<float> MakeStackArena<float>(const EncoderConfig&,
                                                  graph::StackGraphOptions,
                                                  std::size_t);

}  // namespace xflow::transformer
