#include "config/selection.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/half.hpp"
#include "layouts/contraction_space.hpp"
#include "layouts/fused_space.hpp"

namespace xflow::config {

namespace {

using graph::DataflowGraph;
using graph::OpClass;
using graph::OpNode;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One stage of the forward chain with its boundary tensors.
struct Stage {
  const fusion::FusedKernel* kernel = nullptr;
  std::string in_tensor;
  std::string out_tensor;
  /// cost[li][lo] in microseconds.
  std::map<std::string, std::map<std::string, double>> cost;
  double best = kInf;
};

/// The boundary tensor between two adjacent stages: produced by `producer`
/// and consumed by `consumer` (the activation flowing along the chain).
std::string BoundaryTensor(const fusion::FusedKernel& producer,
                           const fusion::FusedKernel& consumer) {
  for (const auto& t : producer.external_outputs) {
    if (std::find(consumer.external_inputs.begin(),
                  consumer.external_inputs.end(),
                  t) != consumer.external_inputs.end()) {
      return t;
    }
  }
  require(false, "adjacent stages share no tensor");
  return {};
}

/// The final boundary: the stage output nothing consumes (the layer output).
std::string TerminalTensor(const DataflowGraph& g,
                           const fusion::FusedKernel& k) {
  for (const auto& t : k.external_outputs) {
    if (g.ConsumersOf(t).empty()) return t;
  }
  return k.external_outputs.front();
}

/// The graph input feeding the first stage (not a weight).
std::string SourceTensor(const DataflowGraph& g,
                         const fusion::FusedKernel& k) {
  for (const auto& t : k.external_inputs) {
    if (!g.tensor(t).is_weight && g.ProducerOf(t) < 0) return t;
  }
  require(false, "first stage has no graph input");
  return {};
}

layouts::GemmLayout MapBoundaryToGemmLayout(const EinsumSpec& spec,
                                            const std::string& li,
                                            const std::string& lo) {
  layouts::GemmLayout gl;
  // The activation operand streams contiguously when the contracted dims
  // are outermost; the output when its leading dim is a free (m) dim.
  gl.b_transposed = spec.k_dims.find(li.front()) == std::string::npos;
  gl.c_transposed = spec.m_dims.find(lo.front()) == std::string::npos &&
                    spec.batch_dims.find(lo.front()) == std::string::npos;
  gl.batch_interleaved =
      !spec.batch_dims.empty() &&
      spec.batch_dims.find(lo.front()) == std::string::npos &&
      spec.batch_dims.find(lo[1]) == std::string::npos;
  return gl;
}

std::vector<Stage> BuildForwardStages(const sim::GpuModel& model,
                                      const DataflowGraph& g,
                                      const fusion::FusionResult& fused) {
  // Forward kernels: those entirely before the first backward operator.
  int first_bwd = static_cast<int>(g.ops().size());
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    if (g.ops()[i].name == "layernorm 2 dW") {
      first_bwd = static_cast<int>(i);
      break;
    }
  }

  // Collect the forward kernels, then chain boundary tensors.
  std::vector<const fusion::FusedKernel*> chain;
  for (const auto& k : fused.kernels) {
    if (k.op_indices.front() >= first_bwd) break;
    chain.push_back(&k);
  }
  require(!chain.empty(), "no forward kernels");

  std::vector<Stage> stages;
  for (std::size_t ci = 0; ci < chain.size(); ++ci) {
    const auto& k = *chain[ci];
    Stage st;
    st.kernel = &k;
    st.in_tensor = ci == 0 ? SourceTensor(g, k) : stages.back().out_tensor;
    st.out_tensor = ci + 1 < chain.size() ? BoundaryTensor(k, *chain[ci + 1])
                                          : TerminalTensor(g, k);
    const auto in_layouts =
        AllPermutations(g.tensor(st.in_tensor).shape.names());
    const auto out_layouts =
        AllPermutations(g.tensor(st.out_tensor).shape.names());

    if (k.IsContraction(g)) {
      const auto& op = g.ops()[static_cast<std::size_t>(k.op_indices[0])];
      const auto spec = EinsumSpec::Parse(op.einsum);
      const auto extents =
          ContractionExtents(spec, g.tensor(op.inputs[0]).shape,
                             g.tensor(op.inputs[1]).shape);
      // Exhaustive algorithm choice at fixed layout pair.
      for (const auto& li : in_layouts) {
        for (const auto& lo : out_layouts) {
          const auto gl = MapBoundaryToGemmLayout(spec, li, lo);
          double best = kInf;
          for (int algo = 0; algo < sim::kNumGemmAlgorithms; ++algo) {
            sim::ContractionConfig cfg{
                .tensor_cores = true,
                .algorithm = algo,
                .layout_factor = layouts::GemmLayoutFactor(gl, extents)};
            best = std::min(best, model.Contraction(extents, cfg).time_us);
          }
          st.cost[li][lo] = best;
          st.best = std::min(st.best, best);
        }
      }
    } else {
      const auto space = layouts::SpaceFromKernel(g, k);
      const auto samples = SweepFusedKernel(model, space);
      // Primary-shape layouts may differ from boundary dims (e.g. BRD's
      // primary is ubj while its input boundary is ubj too; for kernels
      // where they match we can index directly; otherwise fall back to the
      // best sample for every pair).
      const bool in_match = g.tensor(st.in_tensor).shape.names().size() ==
                            space.primary.names().size();
      const bool out_match = g.tensor(st.out_tensor).shape.names().size() ==
                             space.primary.names().size();
      for (const auto& s : samples) {
        const std::string li = in_match ? s.config.in_layout
                                        : in_layouts.front();
        const std::string lo = out_match ? s.config.out_layout
                                         : out_layouts.front();
        auto& slot = st.cost[li];
        const auto it = slot.find(lo);
        if (it == slot.end() || s.timing.time_us < it->second) {
          slot[lo] = s.timing.time_us;
        }
        st.best = std::min(st.best, s.timing.time_us);
      }
    }
    stages.push_back(std::move(st));
  }
  return stages;
}

}  // namespace

double SelectionResult::StagePenalty(const std::string& kernel_name) const {
  for (const auto& s : stages) {
    if (s.kernel_name == kernel_name && s.best_time_us > 0) {
      return s.time_us / s.best_time_us;
    }
  }
  return 1.0;
}

SelectionResult SelectConfigurations(const sim::GpuModel& model,
                                     const DataflowGraph& g,
                                     const fusion::FusionResult& fused) {
  const auto stages = BuildForwardStages(model, g, fused);
  require(!stages.empty(), "no forward stages found");

  SelectionResult result;

  // DP over boundaries. dist[layout] = best cost to reach that layout of
  // the current boundary tensor. Source: the graph input in its canonical
  // dimension order.
  std::map<std::string, double> dist;
  dist[g.tensor(stages.front().in_tensor).shape.names()] = 0.0;

  // parent[stage][lo] = li chosen to reach lo.
  std::vector<std::map<std::string, std::string>> parent(stages.size());

  for (std::size_t si = 0; si < stages.size(); ++si) {
    const auto& st = stages[si];
    std::map<std::string, double> next;
    for (const auto& [li, base] : dist) {
      const auto row = st.cost.find(li);
      if (row == st.cost.end()) continue;
      for (const auto& [lo, c] : row->second) {
        const double total = base + c;
        const auto it = next.find(lo);
        if (it == next.end() || total < it->second) {
          next[lo] = total;
          parent[si][lo] = li;
        }
        ++result.graph_edges;
      }
    }
    require(!next.empty(), "selection graph disconnected at a stage");
    result.graph_nodes += static_cast<int>(next.size());
    dist = std::move(next);
  }

  // Pick the cheapest final layout and backtrack the path.
  auto best_final = std::min_element(
      dist.begin(), dist.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  result.total_time_us = best_final->second;

  std::vector<std::string> path(stages.size() + 1);
  path[stages.size()] = best_final->first;
  for (std::size_t si = stages.size(); si-- > 0;) {
    path[si] = parent[si].at(path[si + 1]);
  }

  for (std::size_t si = 0; si < stages.size(); ++si) {
    const auto& st = stages[si];
    StageChoice choice;
    choice.kernel_name = st.kernel->name;
    choice.in_layout = path[si];
    choice.out_layout = path[si + 1];
    choice.time_us = st.cost.at(path[si]).at(path[si + 1]);
    choice.best_time_us = st.best;
    result.per_stage_lower_bound_us += st.best;
    result.stages.push_back(std::move(choice));
  }
  return result;
}

double GreedySelectionTime(const sim::GpuModel& model,
                           const DataflowGraph& g,
                           const fusion::FusionResult& fused) {
  const auto stages = BuildForwardStages(model, g, fused);
  double total = 0;
  std::string carried;  // layout the previous stage produced
  for (const auto& st : stages) {
    // Locally best pair, ignoring what the previous stage produced.
    double best = kInf;
    std::string best_li, best_lo;
    for (const auto& [li, row] : st.cost) {
      for (const auto& [lo, c] : row) {
        if (c < best) {
          best = c;
          best_li = li;
          best_lo = lo;
        }
      }
    }
    if (!carried.empty() && carried != best_li) {
      // Pay an explicit transpose of the boundary tensor.
      const double bytes = static_cast<double>(
          g.tensor(st.in_tensor).shape.num_elements() * kHalfBytes);
      total += model.spec().kernel_launch_us +
               2 * bytes / (model.spec().mem_bandwidth * 0.75) * 1e6;
    }
    total += best;
    carried = best_lo;
  }
  return total;
}

}  // namespace xflow::config
