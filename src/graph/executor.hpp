// Graph-level execution of a DataflowGraph over a liveness-planned arena.
//
// PR 4 made the dataflow graph the unit of *planning*: every container
// gets a fixed offset in one Workspace slab. This executor makes it the
// unit of *execution* too, closing the loop of the paper's data-centric
// recipe (Ivanov et al., MLSys 2021; cf. Rausch et al. 2021): the same
// graph that is analyzed, fused and planned is walked op by op, each
// tensor id resolving to its planned slab bytes, and each OpKind
// dispatching to the existing kernel library (EinsumInto, the softmax /
// layernorm / element-wise ops and the paper's fused kernels).
//
// Binding rules:
//   * planned containers (activations, masks, statistics, gradients of
//     activations) resolve to Workspace views at their MemoryPlan offset;
//   * weights, weight gradients and graph inputs (x, d_y) are *external*:
//     the caller binds them by reference (BindInput / BindOutput) and the
//     executor never copies or stages them. A bound tensor must have its
//     container's dims and extents, in any memory order;
//   * plan groups (MemoryPlan::groups(), the algebraically stacked Q/K/V
//     blocks) resolve to one contiguous view spanning their members, so
//     stacked contractions read/write a single tensor with zero-copy
//     splits.
//
// With `use_fused_kernels` the schedule is the plan's own: each of
// plan->options().fused_spans (DRLN/BDRLN, BRD, BLNRD, BDRB, EBSB, as
// fusion::LaunchOf recognizes them) dispatches as one fused launch and
// every other op alone, so the executor runs exactly the kernels whose
// liveness the plan laid out. Without fused kernels every op runs alone.
// Either way results are bitwise identical, at every thread count, to the
// owning encoder layer (transformer/encoder.hpp), whose per-operator
// pipeline is the independent reference.
// Steady-state Run calls perform zero tensor or workspace allocations: all
// views are non-owning aliases.
//
// The schedule runs *concurrently*: BuildStepDeps derives a step-level
// dependency DAG in one sweep over the schedule, ordering two steps that
// touch a common resource when at least one of them writes it. A resource
// is an external container, or a slab byte segment (the bytes between two
// neighbouring placement boundaries) for planned ones, so steps whose
// containers share bytes are ordered even with no graph path between them.
// Recompute clones need exactly that: the planner and the verifier let a
// clone reuse bytes it has no graph path to because this ordering
// serializes the steps that share them. RunRange dispatches every
// dependency-free step as a TaskGroup task over the work-stealing pool (an
// in-order loop when the pool has one thread or the range one step).
// Independent graph branches -- the attention head and the residual leg,
// the mutually independent dW/dX gradients -- overlap, while each step's
// internal ParallelFor splits across the remaining workers (nested groups
// are deadlock-free: a waiter steals instead of idling). Results stay
// bitwise identical to serial execution at every thread count: the
// dependency DAG serializes every pair of steps whose bytes could
// interact, and each kernel's determinism contract (fixed chunking, fixed
// reduction order) is scheduling-independent. One executor instance still
// serves one caller at a time; concurrency lives *inside* RunRange.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fusion/fuser.hpp"
#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/verify.hpp"
#include "tensor/einsum.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"

namespace xflow {
class TaskGroup;  // common/threadpool.hpp
}  // namespace xflow

namespace xflow::graph {

/// Runtime attributes the graph does not carry: the scalar knobs of the
/// softmax/layernorm/dropout kernels and the dropout seed schedule.
struct ExecutorOptions {
  /// Launch the plan's fused spans as the paper's fused kernels;
  /// otherwise every op runs as its own kernel launch.
  bool use_fused_kernels = true;
  /// Causal (decoder-style) attention masking inside the SM kernel, over
  /// the query-position dim j.
  bool causal = false;
  float dropout_prob = 0.0f;
  float ln_eps = 1e-5f;
  /// The 1/sqrt(p) scaling folded into the SM/BS kernels.
  float attn_scale = 1.0f;
  /// Seeds for the dropout-bearing ops (kScaledSoftmax, kDropout), in
  /// graph appearance order -- the layer's per-site Philox streams.
  std::vector<std::uint64_t> dropout_seeds;
};

/// Interprets a DataflowGraph over a planned Workspace slab. `graph`,
/// `plan` and `workspace` (typically a StackArenaT's) must outlive the
/// executor, the graph and plan must stay unchanged, and the workspace
/// must already be reserved to plan->PeakBytes(). The constructor's
/// pre-flight runs Verify(*graph, *plan, plan->options()) once, in every
/// build, and throws InvalidArgument with the report's summary on any
/// error; it also throws naming any declared fused span that is not a run
/// of consecutive ops fusion::LaunchOf recognizes.
template <typename T>
class GraphExecutorT {
 public:
  GraphExecutorT(const DataflowGraph* graph, const MemoryPlan* plan,
                 Workspace* workspace, ExecutorOptions options);
  // Neither copyable nor movable: the concurrent dispatch's step runners
  // point back at this object from construction on.
  GraphExecutorT(const GraphExecutorT&) = delete;
  GraphExecutorT& operator=(const GraphExecutorT&) = delete;
  GraphExecutorT(GraphExecutorT&&) = delete;
  GraphExecutorT& operator=(GraphExecutorT&&) = delete;

  /// Binds a read-only external container (graph input or weight). The
  /// tensor must have the container's dims and extents, in any memory
  /// order (InvalidArgument naming both shapes otherwise), and its
  /// storage must stay valid and unmoved until the next rebind; rebinding
  /// every Run is cheap (an aliasing view, no copy).
  void BindInput(const std::string& name, const Tensor<T>& tensor);
  /// Binds a writable external container (a weight gradient); shaped as
  /// for BindInput.
  void BindOutput(const std::string& name, Tensor<T>& tensor);
  /// Binds the token ids a kEmbed/kEmbedDW op reads (row-major [b][j]).
  /// Copied: the caller's vector need not outlive the call.
  void BindTokens(const std::vector<std::int32_t>& tokens);

  /// Executes the forward ops: [0, backward_begin).
  void Forward();
  /// Executes the backward ops: [backward_begin, num_ops). Each Backward
  /// consumes one completed Forward: the plan recycles saved activations'
  /// bytes during backward, so without a Forward since construction or
  /// the last Backward it throws InvalidArgument instead of reading them.
  void Backward();

  /// Binding completeness as verifier diagnostics (rules binding/unbound,
  /// binding/read-only, binding/unused-writable): every graph container
  /// must resolve to a planned view or a bound external, and externals an
  /// op writes must have been bound writable. Checks the whole graph; the
  /// pre-flight runs the same rules restricted to the pass it is about to
  /// execute (Forward does not need the weight-gradient bindings yet).
  [[nodiscard]] VerifyReport VerifyBindings() const;

  /// Scalar loss of the last kMseLoss dispatch (also written to the
  /// graph's fp32 `loss` container). Meaningful after Backward() -- the
  /// loss head is the last forward op, but graphs with a loss produce
  /// d_y there, so Forward() already runs it.
  [[nodiscard]] double last_loss() const { return last_loss_; }

  /// DataflowGraph::BackwardBegin(): the boundary between Forward() and
  /// Backward(). Checkpoint recompute clones count as backward -- they run
  /// directly before the backward ops that read their outputs.
  [[nodiscard]] int backward_begin() const { return backward_begin_; }
  [[nodiscard]] const DataflowGraph& graph() const { return *graph_; }
  /// Number of scheduled kernel launches (fused spans count once).
  [[nodiscard]] int num_steps() const {
    return static_cast<int>(steps_.size());
  }

 private:
  /// One scheduled kernel launch: a single op (kNone, dispatched by
  /// OpKind), or a declared fused span launched as one paper kernel.
  struct Step {
    fusion::FusedLaunch launch = fusion::FusedLaunch::kNone;
    std::vector<int> ops;  // graph op indices, consecutive
  };
  /// An op's attributes, resolved once by BuildSchedule.
  struct ResolvedOp {
    EinsumSpec spec;  // kContraction: the parsed einsum
    // Operand containers of a contraction (a x b -> out) or a bias
    // gradient (a -> out), with a run of plan-group members replaced by
    // the group, whose one spanning view the stacked kernel reads/writes.
    std::string a, b, out;
    std::uint64_t dropout_seed = 0;  // kScaledSoftmax, kDropout
  };

  void BuildBindings();
  void BuildSchedule();
  /// Aliasing view of `tensor` for container `name`, after checking it
  /// has the container's dims and extents.
  void Bind(const std::string& name, const Tensor<T>& tensor, bool writable);
  void BuildStepDeps();
  /// Per-pass pre-flight: when a container was newly bound or changed
  /// role (read-only vs writable) since the last successful check of this
  /// pass, check the bindings the ops in [begin_op, end_op) touch and
  /// throw InvalidArgument on any error. The graph and plan, verified at
  /// construction, cannot have changed since.
  void MaybeVerifyBindings(int begin_op, int end_op, bool* pending);
  [[nodiscard]] VerifyReport VerifyBindingsInRange(int begin_op, int end_op,
                                                   bool warn_unused) const;
  void RunRange(int begin_step, int end_step);
  void RunRangeConcurrent(int begin_step, int end_step);
  /// One step's dispatch with kernel failures wrapped in the op-naming
  /// "[while executing ...]" context (shared by both execution modes).
  void RunStepChecked(int s);
  /// Task body of one scheduled step: run it, then release (and spawn)
  /// every in-range successor whose dependency count hits zero.
  void RunStepTask(int s);
  void Dispatch(const Step& step);
  void DispatchSingle(int op_index);

  [[nodiscard]] Tensor<T>& View(const std::string& name);
  [[nodiscard]] Tensor<T>& MutableView(const std::string& name);
  [[nodiscard]] TensorF& StatView(const std::string& name);

  const DataflowGraph* graph_;
  const MemoryPlan* plan_;
  Workspace* workspace_;
  ExecutorOptions options_;
  float keep_scale_;  // DropoutKeepScale(options_.dropout_prob)

  std::map<std::string, Tensor<T>> bound_;  // planned views + externals
  std::map<std::string, bool> writable_;    // externals only
  std::map<std::string, TensorF> stats_;    // fp32 statistics views
  std::vector<ResolvedOp> resolved_;        // by op index
  std::vector<std::int32_t> tokens_;        // kEmbed/kEmbedDW input
  double last_loss_ = 0;                    // kMseLoss scalar result
  std::vector<Step> steps_;
  // Step-level dependency DAG (BuildStepDeps): edges always point from
  // the earlier schedule index to the later one, so step j runs only
  // after every in-range predecessor in step_preds_[j]. runners_ and
  // remaining_ are preallocated scheduling state RunRangeConcurrent
  // reuses every call; run_ points at the active call's stack context
  // (one caller at a time, like the rest of the executor API).
  struct StepRunner {
    GraphExecutorT* self = nullptr;
    int step = 0;
    void operator()() const { self->RunStepTask(step); }
  };
  struct RunCtx {
    TaskGroup* group = nullptr;
    int begin_step = 0;
    int end_step = 0;
    std::atomic<bool> failed{false};
  };
  std::vector<std::vector<int>> step_preds_;
  std::vector<std::vector<int>> step_succs_;
  std::vector<StepRunner> runners_;
  std::unique_ptr<std::atomic<int>[]> remaining_;
  RunCtx* run_ = nullptr;
  int backward_begin_ = 0;       // op index
  int backward_begin_step_ = 0;  // step index
  // Re-check bindings before the next Forward/Backward (set on
  // construction and whenever a bind adds a container or changes its
  // role, cleared per pass on a clean check).
  bool forward_preflight_pending_ = true;
  bool backward_preflight_pending_ = true;
  // A Forward completed and no Backward has run since (Backward's guard).
  bool forward_done_ = false;
};

using GraphExecutor = GraphExecutorT<Half>;

extern template class GraphExecutorT<Half>;
extern template class GraphExecutorT<float>;

}  // namespace xflow::graph
