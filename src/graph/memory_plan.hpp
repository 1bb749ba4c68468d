// Liveness-driven arena planning over a DataflowGraph.
//
// The graph's edges give exact producer/consumer relationships, so every
// container's lifetime is an op-index interval: born at its producer,
// dead after its last consumer. Saved forward outputs (dropout masks,
// softmax results, layernorm statistics) are consumed deep in the
// backward pass, so they naturally stay live until then; tensors nothing
// consumes inside the graph (the layer output, forward-only saved
// tensors, d_x) stay live to the end of the step. Graph inputs are
// pinned -- live for the whole step -- and weights are excluded entirely
// (they persist across steps and belong to the parameter structs).
//
// First-fit interval allocation then assigns every container a fixed
// offset in one slab such that containers share bytes exactly when their
// lifetimes do not overlap. This is the data-centric memory optimization
// of the paper's recipe (cf. Rausch et al. 2021) applied to our
// SDFG-lite: steady-state steps reuse one planned arena instead of
// churning the allocator, and peak activation memory drops well below
// the naive sum-of-tensors.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace xflow::graph {

/// Containers that must occupy one contiguous block, packed tightly in
/// member order -- the algebraic-fusion stacks, e.g. [dQ~ dK~ dV~]
/// (Sec. IV-D), whose stacked GEMM reads/writes them as one tensor. The
/// plan gains an extra placement under `name` spanning all members.
struct PlanGroup {
  std::string name;
  std::vector<std::string> members;
};

struct PlanOptions {
  /// Offset alignment for every placed container (group members are
  /// packed tightly inside their block instead).
  std::size_t alignment = 64;
  /// Element size when `elem_bytes` is not set; matches fp32.
  std::size_t default_elem_bytes = 4;
  /// Per-container element size (e.g. fp16 activations but fp32
  /// layernorm statistics).
  std::function<std::size_t(const TensorNode&)> elem_bytes;
  std::vector<PlanGroup> groups;
  /// Containers excluded from the plan entirely (like weights): graph
  /// inputs the executor passes by reference instead of staging in the
  /// arena, e.g. the encoder's d_y.
  std::vector<std::string> exclude;
  /// Op groups (op names, in graph order) the executor launches as ONE
  /// fused kernel (Sec. IV-A) -- exactly these, and only when fused
  /// kernels are enabled. Liveness treats each group as a single
  /// operator spanning its op-index range, so a kernel's inputs can never
  /// share bytes with its outputs -- the kernel reads and writes them
  /// concurrently, and per-op liveness would otherwise let first-fit
  /// recycle an input mid-kernel. A span none of whose ops is in the
  /// graph is ignored (forward-only graphs lack the backward spans); a
  /// partially present span is rejected.
  std::vector<std::vector<std::string>> fused_spans;
};

/// One planned container (or group alias): a fixed [offset, offset+bytes)
/// slab range plus the liveness interval justifying it.
struct TensorPlacement {
  std::string name;
  Shape shape;  // default-constructed for group aliases
  std::size_t elem_bytes = 0;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  /// Liveness in op indices: first_use is the producer (-1 for graph
  /// inputs, which are live before op 0); last_use is the final consumer,
  /// or the last op of the graph when nothing consumes the tensor inside
  /// it. Group members carry their group's merged interval.
  int first_use = -1;
  int last_use = 0;
  bool pinned = false;  // graph input: never recycled
};

class MemoryPlan {
 public:
  [[nodiscard]] bool Contains(const std::string& name) const {
    return placements_.contains(name);
  }
  [[nodiscard]] const TensorPlacement& at(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, TensorPlacement>& placements()
      const {
    return placements_;
  }

  /// The stacked groups placed as one spanning block (PlanOptions::groups
  /// whose members are all in the graph, more than one member each), in
  /// option order. Each has a placement under its name; a contraction
  /// whose operand list matches a group's members reads or writes that
  /// one view.
  [[nodiscard]] const std::vector<PlanGroup>& groups() const {
    return groups_;
  }

  /// The options this plan was planned with: its fused spans are the
  /// schedule the executor launches, and its pre-flight verifies the plan
  /// against them.
  [[nodiscard]] const PlanOptions& options() const { return options_; }

  /// Slab bytes required to run the whole graph with this plan.
  [[nodiscard]] std::size_t PeakBytes() const { return peak_bytes_; }
  /// What separate allocation of every planned container would cost
  /// (aligned, groups counted member-by-member) -- the owning executor's
  /// footprint and the baseline of the reported reduction.
  [[nodiscard]] std::size_t NaiveSumBytes() const { return naive_bytes_; }
  /// 1 - peak/naive, in [0, 1).
  [[nodiscard]] double Reduction() const;

  [[nodiscard]] std::string Summary() const;

  /// Assembles a plan directly from placements, bypassing the planner
  /// (default options). Exists so tests can hand the verifier
  /// deliberately-corrupted plans; never use it to construct a plan meant
  /// to execute.
  static MemoryPlan FromPlacements(
      std::map<std::string, TensorPlacement> placements,
      std::size_t peak_bytes, std::size_t naive_bytes);

 private:
  friend MemoryPlan PlanMemory(const DataflowGraph&, const PlanOptions&);

  std::map<std::string, TensorPlacement> placements_;
  std::vector<PlanGroup> groups_;
  PlanOptions options_;
  std::size_t peak_bytes_ = 0;
  std::size_t naive_bytes_ = 0;
};

/// Plans every non-weight container of `graph` into one arena by
/// first-fit over liveness intervals. Deterministic: identical graphs and
/// options produce identical plans. Concurrency-safe: two containers
/// share bytes only when, beyond disjoint liveness, every op touching
/// the earlier one has a graph path to every op touching the later one
/// -- the task scheduler runs path-free ops concurrently, so plans must
/// (and do, by construction) satisfy verify rule plan/concurrent-overlap.
MemoryPlan PlanMemory(const DataflowGraph& graph,
                      const PlanOptions& options = {});

}  // namespace xflow::graph
