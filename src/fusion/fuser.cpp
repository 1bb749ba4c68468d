#include "fusion/fuser.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow::fusion {

namespace {

using graph::DataflowGraph;
using graph::OpClass;
using graph::OpKind;
using graph::OpNode;

std::string DimNames(const std::vector<DimExt>& dims) {
  std::string s;
  for (const auto& d : dims) s += d.name;
  std::sort(s.begin(), s.end());
  return s;
}

std::string SpaceOf(const OpNode& op) {
  std::string s = DimNames(op.independent_dims) + DimNames(op.reduction_dims);
  std::sort(s.begin(), s.end());
  return s;
}

int SharedDims(const std::string& a, const std::string& b) {
  int n = 0;
  for (char c : a) n += b.find(c) != std::string::npos;
  return n;
}

/// Does `op` have a dataflow link into the group: consumes a tensor some
/// member produced, or shares an input tensor with a member?
bool HasDataflowLink(const DataflowGraph& g, const std::vector<int>& group,
                     const OpNode& op) {
  std::set<std::string> produced, read;
  for (int idx : group) {
    const auto& member = g.ops()[static_cast<std::size_t>(idx)];
    produced.insert(member.outputs.begin(), member.outputs.end());
    read.insert(member.inputs.begin(), member.inputs.end());
  }
  return std::any_of(op.inputs.begin(), op.inputs.end(),
                     [&](const std::string& in) {
                       return produced.contains(in) || read.contains(in);
                     });
}

/// One fused launch: its op kinds in graph order, and the first member
/// whose first input must be its predecessor's first output (earlier
/// members are siblings).
struct LaunchPattern {
  FusedLaunch launch;
  std::vector<OpKind> kinds;
  std::size_t chain_begin;
};

const std::vector<LaunchPattern>& LaunchTable() {
  static const std::vector<LaunchPattern> table = {
      {FusedLaunch::kDRLN,
       {OpKind::kBias, OpKind::kDropout, OpKind::kResidual,
        OpKind::kLayerNorm},
       1},
      {FusedLaunch::kBRD, {OpKind::kBias, OpKind::kReLU, OpKind::kDropout},
       1},
      {FusedLaunch::kBLNRD, {OpKind::kLayerNormDX, OpKind::kDropoutDX}, 1},
      {FusedLaunch::kBDRB,
       {OpKind::kBiasDW, OpKind::kDropoutDX, OpKind::kReLUDX,
        OpKind::kBiasDW},
       2},
      {FusedLaunch::kEBSB, {OpKind::kResidualBwd, OpKind::kLayerNormDW}, 1},
  };
  return table;
}

/// Paper names for recognized groups.
std::string PaperName(const DataflowGraph& g, const std::vector<int>& group,
                      FusedLaunch launch, int& drln_count) {
  switch (launch) {
    case FusedLaunch::kDRLN: return ++drln_count == 1 ? "DRLN" : "BDRLN";
    case FusedLaunch::kBRD: return "BRD";
    case FusedLaunch::kBLNRD: return "BLNRD";
    case FusedLaunch::kBDRB: return "BDRB";
    case FusedLaunch::kEBSB: return "EBSB";
    case FusedLaunch::kNone: break;
  }
  if (group.size() == 1) {
    const auto& op = g.ops()[static_cast<std::size_t>(group[0])];
    switch (op.kind) {
      case OpKind::kScaledSoftmax: return "SM";
      case OpKind::kScaledSoftmaxDX: return "BS";
      case OpKind::kLayerNormDW: return "BSB";
      case OpKind::kBias: return "AIB";
      case OpKind::kBiasDW:
        return op.name.find("input") != std::string::npos ? "BAIB" : "BAOB";
      case OpKind::kResidualBwd: return "BEI";
      default: break;
    }
    return op.name;
  }
  std::vector<std::string> names;
  for (int idx : group) {
    names.push_back(g.ops()[static_cast<std::size_t>(idx)].name);
  }
  return "fused{" + Join(names, "+") + "}";
}

FusedKernel MakeKernel(const DataflowGraph& g, std::vector<int> group,
                       int& drln_count) {
  FusedKernel k;
  k.op_indices = std::move(group);
  std::set<std::string> produced;
  for (int idx : k.op_indices) {
    const auto& op = g.ops()[static_cast<std::size_t>(idx)];
    for (const auto& out : op.outputs) produced.insert(out);
    if (!op.reduction_dims.empty() && k.reduction_dims.empty()) {
      k.reduction_dims = DimNames(op.reduction_dims);
    }
  }
  std::set<std::string> inputs;
  for (int idx : k.op_indices) {
    const auto& op = g.ops()[static_cast<std::size_t>(idx)];
    for (const auto& in : op.inputs) {
      if (!produced.contains(in)) inputs.insert(in);
    }
  }
  k.external_inputs.assign(inputs.begin(), inputs.end());

  const std::set<int> in_group(k.op_indices.begin(), k.op_indices.end());
  for (const auto& t : produced) {
    const auto& consumers = g.ConsumersOf(t);
    const bool consumed_outside =
        std::any_of(consumers.begin(), consumers.end(),
                    [&](int c) { return !in_group.contains(c); });
    if (consumed_outside || consumers.empty()) {
      k.external_outputs.push_back(t);  // graph outputs / saved tensors too
    } else {
      k.interim.push_back(t);
    }
  }
  k.launch = LaunchOf(g, k.op_indices);
  k.name = PaperName(g, k.op_indices, k.launch, drln_count);
  return k;
}

}  // namespace

FusedLaunch LaunchOf(const DataflowGraph& g,
                     const std::vector<int>& op_indices) {
  const auto op = [&](std::size_t m) -> const OpNode& {
    return g.ops()[static_cast<std::size_t>(op_indices[m])];
  };
  for (const LaunchPattern& p : LaunchTable()) {
    bool match = p.kinds.size() == op_indices.size();
    for (std::size_t m = 0; match && m < op_indices.size(); ++m) {
      match = op(m).kind == p.kinds[m] &&
              (m < p.chain_begin ||
               (!op(m).inputs.empty() && !op(m - 1).outputs.empty() &&
                op(m).inputs.front() == op(m - 1).outputs.front()));
    }
    if (match) return p.launch;
  }
  return FusedLaunch::kNone;
}

bool FusedKernel::IsContraction(const DataflowGraph& g) const {
  return op_indices.size() == 1 &&
         g.ops()[static_cast<std::size_t>(op_indices[0])].cls() ==
             OpClass::kContraction;
}

bool IterationSpacesCompatible(const OpNode& a, const OpNode& b) {
  const std::string red_a = DimNames(a.reduction_dims);
  const std::string red_b = DimNames(b.reduction_dims);
  // A reduction dimension change breaks fusion.
  if (!red_a.empty() && !red_b.empty() && red_a != red_b) return false;
  // The spaces must conform: sharing at least two dimensions lets the
  // outermost independent dims be shared across the merged kernel.
  return SharedDims(SpaceOf(a), SpaceOf(b)) >= 2;
}

FusionResult FuseMaximally(const DataflowGraph& g) {
  FusionResult result;
  int drln_count = 0;
  std::vector<int> current;

  auto flush = [&] {
    if (!current.empty()) {
      result.kernels.push_back(MakeKernel(g, std::move(current), drln_count));
      current.clear();
    }
  };

  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    const auto& op = g.ops()[i];
    if (op.cls() == OpClass::kContraction) {
      flush();
      current = {static_cast<int>(i)};
      flush();  // contractions stand alone
      continue;
    }
    if (!current.empty()) {
      const auto& last =
          g.ops()[static_cast<std::size_t>(current.back())];
      std::string group_red;
      for (int idx : current) {
        const auto& member = g.ops()[static_cast<std::size_t>(idx)];
        if (!member.reduction_dims.empty()) {
          group_red = DimNames(member.reduction_dims);
          break;
        }
      }
      const std::string op_red = DimNames(op.reduction_dims);
      const bool red_ok =
          group_red.empty() || op_red.empty() || group_red == op_red;
      if (!red_ok || !IterationSpacesCompatible(last, op) ||
          !HasDataflowLink(g, current, op)) {
        flush();
      }
    }
    current.push_back(static_cast<int>(i));
  }
  flush();

  // Launch-merge pass: a lone two-dim reduction operator (bias dW pattern)
  // merges into the next kernel when that kernel ends with a reduction over
  // the same dims -- they share one warp-reduction kernel (paper's BDRB).
  for (std::size_t i = 0; i + 1 < result.kernels.size();) {
    auto& a = result.kernels[i];
    auto& b = result.kernels[i + 1];
    const bool a_is_lone_reduce =
        a.op_indices.size() == 1 && !a.reduction_dims.empty() &&
        !a.IsContraction(g) &&
        g.ops()[static_cast<std::size_t>(a.op_indices[0])].kind ==
            OpKind::kBiasDW;
    const auto& b_last_op =
        g.ops()[static_cast<std::size_t>(b.op_indices.back())];
    const bool b_ends_in_same_reduce =
        !b.IsContraction(g) &&
        DimNames(b_last_op.reduction_dims) == a.reduction_dims;
    if (a_is_lone_reduce && b_ends_in_same_reduce) {
      std::vector<int> merged = a.op_indices;
      merged.insert(merged.end(), b.op_indices.begin(), b.op_indices.end());
      int dummy = 2;  // DRLN naming not applicable here
      result.kernels[i] = MakeKernel(g, std::move(merged), dummy);
      result.kernels.erase(result.kernels.begin() +
                           static_cast<std::ptrdiff_t>(i) + 1);
    } else {
      ++i;
    }
  }
  return result;
}

std::int64_t FusionResult::FusedElementsMoved(const DataflowGraph& g) const {
  std::int64_t total = 0;
  for (const auto& k : kernels) {
    for (const auto& t : k.external_inputs) {
      total += g.tensor(t).shape.num_elements();
    }
    for (const auto& t : k.external_outputs) {
      total += g.tensor(t).shape.num_elements();
    }
  }
  return total;
}

std::int64_t FusionResult::StandardElementsMoved(
    const DataflowGraph& g) const {
  std::int64_t total = 0;
  for (const auto& op : g.ops()) {
    const std::int64_t in = g.InputElements(op);
    const std::int64_t out = g.OutputElements(op);
    switch (op.kind) {
      case OpKind::kScaledSoftmax: {
        // Framework granularity: scale (r/w), softmax (r/w), dropout
        // (r, w value + mask). The composite's saved softmax equals the
        // softmax stage's output.
        const std::int64_t e = g.InputElements(op);  // |beta|
        total += (e + e) + (e + e) + (e + 2 * e);
        break;
      }
      case OpKind::kScaledSoftmaxDX: {
        // dropout dX (r dy + mask, w), softmax dX (r dy + y, w), scale (r/w).
        const std::int64_t e = g.OutputElements(op);  // |d_beta|
        total += (2 * e + e) + (2 * e + e) + (e + e);
        break;
      }
      default:
        total += in + out;
    }
  }
  return total;
}

double FusionResult::DataMovementReduction(const DataflowGraph& g) const {
  const double standard = static_cast<double>(StandardElementsMoved(g));
  const double fused = static_cast<double>(FusedElementsMoved(g));
  return standard > 0 ? 1.0 - fused / standard : 0.0;
}

}  // namespace xflow::fusion
