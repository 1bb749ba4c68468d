#include "graph/executor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "config/autotune.hpp"
#include "ops/elementwise.hpp"
#include "ops/embedding.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"

namespace xflow::graph {

namespace {

/// Aliasing relabel: the same bytes under positional dim names `names`
/// (the executor's equivalent of the hand-wired layer's RenamedDim
/// chains, e.g. presenting the phbk key block as phbj for the stacked
/// bias kernels).
template <typename T>
Tensor<T> Relabeled(const Tensor<T>& t, const std::string& names) {
  require(static_cast<std::size_t>(t.shape().rank()) == names.size(),
          "relabel rank mismatch");
  std::vector<DimExt> dims;
  dims.reserve(names.size());
  for (std::size_t d = 0; d < names.size(); ++d) {
    dims.push_back({names[d], t.shape().dims()[d].extent});
  }
  return Tensor<T>::FromSpan(Shape(std::move(dims)),
                             const_cast<T*>(t.data()));
}

/// The normalization dim of a layernorm-family op. Forward and dX reduce
/// over it; dW iterates it independently and reduces everything else.
char NormDim(const OpNode& op) {
  const auto& dims = op.kind == OpKind::kLayerNormDW ? op.independent_dims
                                                     : op.reduction_dims;
  require(!dims.empty(), [&] {
    return StrFormat("op '%s' has no normalization dim", op.name.c_str());
  });
  return dims.front().name;
}

char ReduceDim(const OpNode& op) {
  require(!op.reduction_dims.empty(), [&] {
    return StrFormat("op '%s' has no reduction dim", op.name.c_str());
  });
  return op.reduction_dims.front().name;
}

/// The container names[begin, end) stands for: its one name, or the plan
/// group whose members it lists in order; "" when it is neither.
std::string GroupOf(const std::vector<PlanGroup>& groups,
                    const std::vector<std::string>& names, std::size_t begin,
                    std::size_t end) {
  if (end - begin == 1) return names[begin];
  const auto first = names.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = names.begin() + static_cast<std::ptrdiff_t>(end);
  for (const PlanGroup& g : groups) {
    if (std::equal(g.members.begin(), g.members.end(), first, last)) {
      return g.name;
    }
  }
  return "";
}

/// Throws InvalidArgument listing every issue unless `report` is clean.
void RequirePreflight(const VerifyReport& report) {
  require(report.ok(), [&] {
    return StrFormat("graph executor pre-flight failed: %s",
                     report.Summary().c_str());
  });
}

}  // namespace

template <typename T>
GraphExecutorT<T>::GraphExecutorT(const DataflowGraph* graph,
                                  const MemoryPlan* plan, Workspace* workspace,
                                  ExecutorOptions options)
    : graph_(graph), plan_(plan), workspace_(workspace),
      options_(std::move(options)),
      keep_scale_(DropoutKeepScale(options_.dropout_prob)) {
  require(graph_ != nullptr && plan_ != nullptr && workspace_ != nullptr,
          "executor needs a graph, a memory plan and a workspace");
  require(workspace_->capacity() >= plan_->PeakBytes(),
          "workspace is smaller than the plan's peak bytes");
  // The graph, the plan and its options are fixed from here on, so one
  // full verification covers every later pass.
  RequirePreflight(Verify(*graph_, *plan_, plan_->options()));
  BuildBindings();
  BuildSchedule();
}

template <typename T>
void GraphExecutorT<T>::BuildBindings() {
  // Planned containers become fixed views into the slab. Statistics
  // containers (a different element width than T, e.g. fp32 layernorm
  // moments among fp16 activations) get fp32 views; when T is float the
  // widths coincide and everything lands in the T map.
  for (const auto& [name, node] : graph_->tensors()) {
    if (!plan_->Contains(name)) continue;  // weights / excluded inputs
    const TensorPlacement& p = plan_->at(name);
    if (p.shape.rank() == 0) continue;  // group aliases handled below
    if (p.elem_bytes == sizeof(T)) {
      bound_.emplace(name, workspace_->ViewAt<T>(p.offset, node.shape));
    } else {
      require(p.elem_bytes == sizeof(float), [&] {
        return StrFormat("container '%s' has unsupported element width",
                         name.c_str());
      });
      stats_.emplace(name, workspace_->ViewAt<float>(p.offset, node.shape));
    }
  }
  // Stacked groups: one spanning view, shaped as the first member with
  // the stack dim's extent summed (the zero-copy [Q~ K~ V~] block).
  for (const PlanGroup& g : plan_->groups()) {
    const TensorPlacement& alias = plan_->at(g.name);
    const Shape& first = graph_->tensor(g.members.front()).shape;
    std::int64_t stacked_extent = 0;
    for (const auto& m : g.members) {
      stacked_extent += graph_->tensor(m).shape.dims().front().extent;
    }
    std::vector<DimExt> dims = first.dims();
    dims.front().extent = stacked_extent;
    Shape shape{std::move(dims)};
    require(static_cast<std::size_t>(shape.num_elements()) * sizeof(T) ==
                alias.bytes,
            [&] {
              return StrFormat("group '%s' does not span its members",
                               g.name.c_str());
            });
    bound_.emplace(g.name, workspace_->ViewAt<T>(alias.offset, shape));
  }
}

template <typename T>
void GraphExecutorT<T>::BuildSchedule() {
  const auto& ops = graph_->ops();
  const auto& groups = plan_->groups();
  backward_begin_ = graph_->BackwardBegin();

  // Per-op attributes resolved once: parsed einsum specs, the operands of
  // stacked kernels, and the dropout seed schedule (appearance order over
  // the dropout-bearing ops, matching the layer's per-site streams).
  // Recompute clones reuse the original op's seed -- bitwise-identical
  // masks -- and do not consume a schedule slot.
  resolved_.assign(ops.size(), ResolvedOp{});
  std::size_t next_seed = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpNode& op = ops[i];
    ResolvedOp& r = resolved_[i];
    if (op.kind == OpKind::kScaledSoftmax || op.kind == OpKind::kDropout) {
      if (!op.recompute_of.empty()) {
        const int original = graph_->OpIndex(op.recompute_of);
        require(original >= 0 && static_cast<std::size_t>(original) < i &&
                    ops[static_cast<std::size_t>(original)].kind == op.kind,
                [&] {
                  return StrFormat("recompute clone '%s' does not follow its "
                                   "original '%s'",
                                   op.name.c_str(), op.recompute_of.c_str());
                });
        r.dropout_seed =
            resolved_[static_cast<std::size_t>(original)].dropout_seed;
      } else {
        require(next_seed < options_.dropout_seeds.size(), [&] {
          return StrFormat("no dropout seed for op '%s' (provide one per "
                           "dropout-bearing op, in graph order)",
                           op.name.c_str());
        });
        r.dropout_seed = options_.dropout_seeds[next_seed++];
      }
    } else if (op.kind == OpKind::kContraction) {
      require(!op.einsum.empty(), [&] {
        return StrFormat("contraction '%s' has no einsum spec",
                         op.name.c_str());
      });
      r.spec = EinsumSpec::Parse(op.einsum);
      // A stacked GEMM lists a group's members in place of one operand:
      // w_qkv x [dQ~ dK~ dV~] (Q,K,V dX), [dQ~ dK~ dV~] x x (Q,K,V dW),
      // and one output block (Q,K,V).
      const auto& in = op.inputs;
      const std::size_t n = in.size();
      if (n >= 2) {
        r.b = GroupOf(groups, in, 1, n);
        r.a = r.b.empty() ? GroupOf(groups, in, 0, n - 1) : in[0];
        if (!r.a.empty() && r.b.empty()) r.b = in[n - 1];
      }
      require(!r.a.empty() && !r.b.empty(), [&] {
        return StrFormat("contraction '%s' has %zu inputs and no matching "
                         "stacked group",
                         op.name.c_str(), n);
      });
      r.out = GroupOf(groups, op.outputs, 0, op.outputs.size());
      require(!r.out.empty(), [&] {
        return StrFormat("contraction '%s' writes %zu outputs and no "
                         "matching stacked group",
                         op.name.c_str(), op.outputs.size());
      });
    } else if (op.kind == OpKind::kBiasDW) {
      // The stacked BAIB gradient reduces the [dQ~ dK~ dV~] group view.
      r.a = GroupOf(groups, op.inputs, 0, op.inputs.size());
      require(!r.a.empty(), [&] {
        return StrFormat("bias dW '%s' has multiple inputs but no stacked "
                         "group",
                         op.name.c_str());
      });
      r.out = op.outputs[0];
    }
  }

  // Schedule: in fused mode, the plan's fused spans -- the kernels whose
  // liveness it laid out -- each launch as one paper kernel; every other
  // op launches alone. Spans absent from the graph (the backward spans of
  // a forward-only graph) are skipped.
  std::vector<Step> fused(ops.size());  // by first op index
  std::vector<bool> covered(ops.size(), false);
  if (options_.use_fused_kernels) {
    for (const auto& span : plan_->options().fused_spans) {
      Step step;
      for (const auto& name : span) {
        if (const int i = graph_->OpIndex(name); i >= 0) step.ops.push_back(i);
      }
      if (step.ops.empty()) continue;
      const std::string what =
          StrFormat("fused span '%s'", Join(span, "' + '").c_str());
      bool run = step.ops.size() == span.size();
      for (std::size_t m = 0; run && m < step.ops.size(); ++m) {
        const auto idx = static_cast<std::size_t>(step.ops[m]);
        run = (m == 0 || step.ops[m] == step.ops[m - 1] + 1) && !covered[idx];
        covered[idx] = true;
      }
      require(run, what + " is not a run of consecutive ops disjoint from "
                          "the other spans");
      step.launch = fusion::LaunchOf(*graph_, step.ops);
      require(step.launch != fusion::FusedLaunch::kNone,
              what + " is not a fused kernel the executor can launch");
      const auto first = static_cast<std::size_t>(step.ops.front());
      fused[first] = std::move(step);
    }
  }
  steps_.clear();
  for (std::size_t i = 0; i < ops.size();) {
    Step& step = fused[i];
    if (step.ops.empty()) step.ops = {static_cast<int>(i)};  // kNone: alone
    i += step.ops.size();
    steps_.push_back(std::move(step));
  }

  backward_begin_step_ = static_cast<int>(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].ops.front() >= backward_begin_) {
      backward_begin_step_ = static_cast<int>(s);
      break;
    }
  }

  BuildStepDeps();
}

template <typename T>
void GraphExecutorT<T>::BuildStepDeps() {
  const int count = static_cast<int>(steps_.size());
  step_preds_.assign(steps_.size(), {});
  step_succs_.assign(steps_.size(), {});
  runners_.resize(steps_.size());
  for (int s = 0; s < count; ++s) runners_[static_cast<std::size_t>(s)] =
      StepRunner{this, s};
  remaining_ = std::make_unique<std::atomic<int>[]>(steps_.size());

  // Resources two steps can race on: the slab byte segments between
  // neighbouring placement boundaries, which tile every planned
  // container's bytes, and by name the external containers (weights, graph
  // inputs, weight gradients) that the plan never sees. Planned accesses
  // are ordered by bytes, not by name, because the plan reuses bytes
  // between steps that no graph path orders: recompute clones overwrite
  // bytes of another layer's backward, and the planner and the verifier
  // (plan/concurrent-overlap) allow that only because this ordering
  // serializes the steps that share the bytes.
  std::vector<std::size_t> bounds;
  for (const auto& [name, p] : plan_->placements()) {
    if (p.bytes == 0) continue;
    bounds.push_back(p.offset);
    bounds.push_back(p.offset + p.bytes);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const auto segment = [&](std::size_t byte) {
    return static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), byte) - bounds.begin());
  };
  // One sweep in schedule order. Each resource keeps its last writer and
  // the readers since that write: a step that reads it follows the
  // writer, a step that writes it follows those readers (or, with none,
  // the writer). Every two steps that touch a resource, one writing it,
  // are thereby ordered, directly or through the accesses between them.
  // Edges run strictly forward in schedule order, so the DAG is acyclic
  // by construction and step_succs_ lists stay sorted ascending.
  struct Resource {
    int writer = -1;
    std::vector<int> readers;
  };
  std::vector<Resource> resources(bounds.size());  // segments first
  std::map<std::string, std::size_t> external;     // name -> resource
  std::vector<std::pair<std::size_t, bool>> touched;  // resource, writes
  std::vector<int> linked(steps_.size(), -1);  // last step linked after it
  for (int s = 0; s < count; ++s) {
    const auto us = static_cast<std::size_t>(s);
    touched.clear();
    const auto touch = [&](const std::string& name, bool writes) {
      const auto it = plan_->placements().find(name);
      if (it != plan_->placements().end() && it->second.bytes > 0) {
        const TensorPlacement& p = it->second;
        const std::size_t end = segment(p.offset + p.bytes);
        for (std::size_t r = segment(p.offset); r < end; ++r) {
          touched.emplace_back(r, writes);
        }
        return;
      }
      const auto [ext, added] = external.try_emplace(name, resources.size());
      if (added) resources.emplace_back();
      touched.emplace_back(ext->second, writes);
    };
    for (int idx : steps_[us].ops) {
      const OpNode& op = graph_->ops()[static_cast<std::size_t>(idx)];
      for (const auto& in : op.inputs) touch(in, false);
      for (const auto& out : op.outputs) touch(out, true);
    }
    const auto link = [&](int pred) {
      if (pred < 0 || linked[static_cast<std::size_t>(pred)] == s) return;
      linked[static_cast<std::size_t>(pred)] = s;
      step_preds_[us].push_back(pred);
      step_succs_[static_cast<std::size_t>(pred)].push_back(s);
    };
    // Sorted, one resource's accesses are adjacent and a write sorts last.
    std::sort(touched.begin(), touched.end());
    for (std::size_t t = 0; t < touched.size(); ++t) {
      const auto [r, writes] = touched[t];
      if (t + 1 < touched.size() && touched[t + 1].first == r) continue;
      Resource& res = resources[r];
      if (!writes) {
        link(res.writer);
        res.readers.push_back(s);
        continue;
      }
      if (res.readers.empty()) link(res.writer);
      for (int reader : res.readers) link(reader);
      res.readers.clear();
      res.writer = s;
    }
  }
}

template <typename T>
void GraphExecutorT<T>::Bind(const std::string& name, const Tensor<T>& tensor,
                             bool writable) {
  require(graph_->HasTensor(name), [&] {
    return StrFormat("graph has no container '%s'", name.c_str());
  });
  // Kernels address operands by dim name, so any memory order works; a
  // matching element count alone would let a kernel walk past the end.
  const Shape& want = graph_->tensor(name).shape;
  const Shape& got = tensor.shape();
  require(std::is_permutation(got.dims().begin(), got.dims().end(),
                              want.dims().begin(), want.dims().end()),
          [&] {
            return StrFormat("bound '%s' is %s, but the graph container is "
                             "%s (the same dims and extents, in any order)",
                             name.c_str(), ToString(got).c_str(),
                             ToString(want).c_str());
          });
  // Stored as an aliasing view: never copied, and never written unless
  // bound writable (enforced at dispatch through the writable_ flag).
  bound_.insert_or_assign(
      name, Tensor<T>::FromSpan(got, const_cast<T*>(tensor.data())));
  // The pre-flight's verdict depends on which containers are bound and
  // how, not on the bytes: rebinding a name in its role keeps it.
  const auto [role, added] = writable_.try_emplace(name, writable);
  if (added || role->second != writable) {
    role->second = writable;
    forward_preflight_pending_ = true;
    backward_preflight_pending_ = true;
  }
}

template <typename T>
void GraphExecutorT<T>::BindInput(const std::string& name,
                                  const Tensor<T>& tensor) {
  Bind(name, tensor, /*writable=*/false);
}

template <typename T>
void GraphExecutorT<T>::BindOutput(const std::string& name, Tensor<T>& tensor) {
  Bind(name, tensor, /*writable=*/true);
}

template <typename T>
void GraphExecutorT<T>::BindTokens(const std::vector<std::int32_t>& tokens) {
  tokens_.assign(tokens.begin(), tokens.end());
}

template <typename T>
Tensor<T>& GraphExecutorT<T>::View(const std::string& name) {
  const auto it = bound_.find(name);
  require(it != bound_.end(), [&] {
    return StrFormat("container '%s' is not planned and not bound -- bind "
                     "weights and graph inputs with BindInput/BindOutput",
                     name.c_str());
  });
  return it->second;
}

template <typename T>
Tensor<T>& GraphExecutorT<T>::MutableView(const std::string& name) {
  Tensor<T>& t = View(name);
  const auto w = writable_.find(name);
  require(w == writable_.end() || w->second, [&] {
    return StrFormat("op writes read-only external container '%s' (bind it "
                     "with BindOutput)",
                     name.c_str());
  });
  return t;
}

template <typename T>
TensorF& GraphExecutorT<T>::StatView(const std::string& name) {
  if constexpr (std::is_same_v<T, float>) {
    return View(name);
  } else {
    const auto it = stats_.find(name);
    require(it != stats_.end(), [&] {
      return StrFormat("container '%s' is not a planned statistic",
                       name.c_str());
    });
    return it->second;
  }
}

template <typename T>
VerifyReport GraphExecutorT<T>::VerifyBindings() const {
  return VerifyBindingsInRange(0, static_cast<int>(graph_->ops().size()),
                               /*warn_unused=*/true);
}

template <typename T>
VerifyReport GraphExecutorT<T>::VerifyBindingsInRange(
    int begin_op, int end_op, bool warn_unused) const {
  VerifyReport report;
  // Containers the range touches, with their last writer in the range.
  std::map<std::string, int> writer_of;
  for (int i = begin_op; i < end_op; ++i) {
    const OpNode& op = graph_->ops()[static_cast<std::size_t>(i)];
    for (const auto& in : op.inputs) writer_of.try_emplace(in, -1);
    for (const auto& out : op.outputs) writer_of[out] = i;
  }
  for (const auto& [name, writer] : writer_of) {
    if (!bound_.contains(name) && !stats_.contains(name)) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kError, "binding/unbound", "", name,
          "not planned and not bound -- bind weights and graph inputs "
          "with BindInput/BindOutput"});
      continue;
    }
    const auto w = writable_.find(name);
    if (w == writable_.end()) continue;  // planned view, always writable
    if (writer >= 0 && !w->second) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kError, "binding/read-only",
          graph_->ops()[static_cast<std::size_t>(writer)].name, name,
          StrFormat("written by %s but bound read-only (use BindOutput)",
                    OpRef(*graph_, writer).c_str())});
    } else if (writer < 0 && w->second && warn_unused) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kWarning, "binding/unused-writable", "", name,
          "bound writable but no op writes it (BindInput suffices)"});
    }
  }
  return report;
}

template <typename T>
void GraphExecutorT<T>::MaybeVerifyBindings(int begin_op, int end_op,
                                            bool* pending) {
  if (!*pending) return;
  RequirePreflight(
      VerifyBindingsInRange(begin_op, end_op, /*warn_unused=*/false));
  *pending = false;  // clean until a bind adds or re-roles a container
}

template <typename T>
void GraphExecutorT<T>::Forward() {
  MaybeVerifyBindings(0, backward_begin_, &forward_preflight_pending_);
  forward_done_ = false;  // a failed run leaves partial activations
  RunRange(0, backward_begin_step_);
  forward_done_ = true;
}

template <typename T>
void GraphExecutorT<T>::Backward() {
  require(forward_done_,
          "Backward() needs a completed Forward() since construction or the "
          "last Backward(): backward reuses the saved activations' bytes");
  MaybeVerifyBindings(backward_begin_, static_cast<int>(graph_->ops().size()),
                      &backward_preflight_pending_);
  forward_done_ = false;
  RunRange(backward_begin_step_, static_cast<int>(steps_.size()));
}

template <typename T>
void GraphExecutorT<T>::RunRange(int begin_step, int end_step) {
  if (end_step - begin_step > 1 && ThreadPool::Global().threads() > 1) {
    RunRangeConcurrent(begin_step, end_step);
    return;
  }
  for (int s = begin_step; s < end_step; ++s) RunStepChecked(s);
}

template <typename T>
void GraphExecutorT<T>::RunRangeConcurrent(int begin_step, int end_step) {
  // Dependency counts restricted to this range (predecessors before
  // begin_step already ran in a prior call), biased by one so the kickoff
  // loop below and completing steps use the same release discipline: the
  // decrement that reaches zero -- wherever it came from -- spawns.
  for (int s = begin_step; s < end_step; ++s) {
    int preds = 0;
    for (int p : step_preds_[static_cast<std::size_t>(s)]) {
      preds += p >= begin_step ? 1 : 0;
    }
    remaining_[s].store(preds + 1, std::memory_order_relaxed);
  }
  TaskGroup group;  // over the global pool
  RunCtx ctx;
  ctx.group = &group;
  ctx.begin_step = begin_step;
  ctx.end_step = end_step;
  run_ = &ctx;
  for (int s = begin_step; s < end_step; ++s) {
    if (remaining_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group.Spawn(runners_[static_cast<std::size_t>(s)]);
    }
  }
  try {
    group.Wait();  // rethrows the first step failure after quiescing
  } catch (...) {
    run_ = nullptr;
    throw;
  }
  run_ = nullptr;
}

template <typename T>
void GraphExecutorT<T>::RunStepTask(int s) {
  RunCtx& ctx = *run_;
  if (ctx.failed.load(std::memory_order_acquire)) return;
  try {
    RunStepChecked(s);
  } catch (...) {
    // Leave successors unreleased: the range is being abandoned, and
    // TaskGroup::Wait will rethrow this (its first recorded error) once
    // the already-spawned steps have drained.
    ctx.failed.store(true, std::memory_order_release);
    throw;
  }
  for (int t : step_succs_[static_cast<std::size_t>(s)]) {
    if (t >= ctx.end_step) break;  // ascending, rest is out of range too
    if (remaining_[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ctx.group->Spawn(runners_[static_cast<std::size_t>(t)]);
    }
  }
}

template <typename T>
void GraphExecutorT<T>::RunStepChecked(int s) {
  const Step& step = steps_[static_cast<std::size_t>(s)];
  // Kernel-layer failures name the op(s) being executed, in the
  // verifier's diagnostic form, instead of surfacing a bare index.
  auto step_ref = [&] {
    std::vector<std::string> refs;
    refs.reserve(step.ops.size());
    for (int idx : step.ops) refs.push_back(OpRef(*graph_, idx));
    return Join(refs, " + ");
  };
  try {
    Dispatch(step);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(
        StrFormat("%s [while executing %s]", e.what(), step_ref().c_str()));
  } catch (const ContractViolation& e) {
    throw ContractViolation(
        StrFormat("%s [while executing %s]", e.what(), step_ref().c_str()));
  }
}

template <typename T>
void GraphExecutorT<T>::Dispatch(const Step& step) {
  const auto op = [&](std::size_t member) -> const OpNode& {
    return graph_->ops()[static_cast<std::size_t>(step.ops[member])];
  };
  const auto seed = [&](std::size_t member) {
    return resolved_[static_cast<std::size_t>(step.ops[member])].dropout_seed;
  };
  // Operand roles follow fusion::LaunchOf's chain: each chained op's
  // first input is its predecessor's first output.
  switch (step.launch) {
    case fusion::FusedLaunch::kNone:
      DispatchSingle(step.ops[0]);
      return;
    case fusion::FusedLaunch::kDRLN: {
      // bias -> dropout -> residual -> layernorm, one pass over memory.
      const OpNode& bias = op(0);
      const OpNode& drop = op(1);
      const OpNode& resid = op(2);
      const OpNode& ln = op(3);
      const DropoutMask mask(seed(1), options_.dropout_prob);
      ops::BiasDropoutResidualLayerNorm(
          View(bias.inputs[0]), View(bias.inputs[1]), View(resid.inputs[1]),
          mask, View(ln.inputs[1]), View(ln.inputs[2]), NormDim(ln),
          options_.ln_eps, MutableView(resid.outputs[0]),
          MutableView(drop.outputs[1]), MutableView(ln.outputs[0]),
          StatView(ln.outputs[1]), StatView(ln.outputs[2]));
      return;
    }
    case fusion::FusedLaunch::kBRD: {
      const OpNode& bias = op(0);
      const OpNode& relu = op(1);
      const OpNode& drop = op(2);
      const DropoutMask mask(seed(2), options_.dropout_prob);
      ops::BiasReluDropout(View(bias.inputs[0]), View(bias.inputs[1]), mask,
                           MutableView(relu.outputs[0]),
                           MutableView(drop.outputs[0]),
                           MutableView(drop.outputs[1]));
      return;
    }
    case fusion::FusedLaunch::kBLNRD: {
      const OpNode& ln_dx = op(0);
      const OpNode& drop_dx = op(1);
      ops::LayerNormDropoutBackward(
          View(ln_dx.inputs[0]), View(ln_dx.inputs[1]), View(ln_dx.inputs[2]),
          StatView(ln_dx.inputs[3]), StatView(ln_dx.inputs[4]),
          View(drop_dx.inputs[1]), NormDim(ln_dx), keep_scale_,
          MutableView(ln_dx.outputs[0]), MutableView(drop_dx.outputs[0]));
      return;
    }
    case fusion::FusedLaunch::kBDRB: {
      const OpNode& bias_hi = op(0);
      const OpNode& drop_dx = op(1);
      const OpNode& relu_dx = op(2);
      const OpNode& bias_lo = op(3);
      ops::BiasDropoutReluBiasBackward(
          View(bias_hi.inputs[0]), View(drop_dx.inputs[0]),
          View(drop_dx.inputs[1]), View(relu_dx.inputs[1]), keep_scale_,
          MutableView(bias_hi.outputs[0]), MutableView(relu_dx.outputs[0]),
          MutableView(bias_lo.outputs[0]));
      return;
    }
    case fusion::FusedLaunch::kEBSB: {
      const OpNode& resid = op(0);
      const OpNode& ln_dw = op(1);
      ops::ResidualLayerNormDwBackward(
          View(resid.inputs[0]), View(resid.inputs[1]), View(ln_dw.inputs[1]),
          StatView(ln_dw.inputs[2]), StatView(ln_dw.inputs[3]),
          NormDim(ln_dw), MutableView(resid.outputs[0]),
          MutableView(ln_dw.outputs[0]), MutableView(ln_dw.outputs[1]));
      return;
    }
  }
}

template <typename T>
void GraphExecutorT<T>::DispatchSingle(int op_index) {
  const OpNode& op = graph_->ops()[static_cast<std::size_t>(op_index)];
  const ResolvedOp& r = resolved_[static_cast<std::size_t>(op_index)];
  switch (op.kind) {
    case OpKind::kContraction: {
      const Tensor<T>& a = View(r.a);
      const Tensor<T>& b = View(r.b);
      Tensor<T>& out = MutableView(r.out);
      // The site's class (cached per spec and operand shapes) keys the
      // autotune bucket. Autotune looks up (or tunes, once, process-wide)
      // the execution strategy for the bucket, or returns the built-in
      // heuristic under XFLOW_AUTOTUNE=off. Measuring re-runs the real
      // dispatch -- legal because beta == 0 here, so every candidate
      // writes the same bits the final run writes.
      const EinsumClassInfo& info = ClassifyEinsum(r.spec, a.shape(),
                                                   b.shape());
      const config::TunedEntry tuned = config::Autotune(
          config::BucketOf(info.cls, info.extents,
                           static_cast<std::int64_t>(sizeof(T))),
          [&](const EinsumExecConfig& cand) {
            const auto t0 = std::chrono::steady_clock::now();
            EinsumLowered(r.spec, info.cls, a, b, out, 1.0f, 0.0f, &cand);
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                .count();
          });
      EinsumLowered(r.spec, info.cls, a, b, out, 1.0f, 0.0f, &tuned.exec);
      return;
    }
    case OpKind::kBias: {
      if (op.outputs.size() == 1) {
        ops::BiasForward(View(op.inputs[0]), View(op.inputs[1]),
                         MutableView(op.outputs[0]));
        return;
      }
      // Stacked projection bias (the AIB site): the last input is the
      // stacked bias; member blocks are presented under the first
      // member's dim names, exactly like the hand-wired layer's renamed
      // views, so the bias's stack dim lines up for every block. Each
      // block gets its slice of the bias through BiasForward, the
      // reference layer's own kernel, fused schedule or not.
      require(op.outputs.size() == 3 && op.inputs.size() == 4, [&] {
        return StrFormat("unsupported bias arity on '%s'", op.name.c_str());
      });
      const Tensor<T>& stacked_bias = View(op.inputs.back());
      const std::string names = View(op.inputs[0]).shape().names();
      std::array<Tensor<T>, 3> in;
      std::array<Tensor<T>, 3> out;
      for (std::size_t s = 0; s < 3; ++s) {
        in[s] = Relabeled(View(op.inputs[s]), names);
        out[s] = Relabeled(MutableView(op.outputs[s]), names);
      }
      const char stack_dim = stacked_bias.shape().dims().front().name;
      std::int64_t start = 0;
      for (std::size_t s = 0; s < 3; ++s) {
        const std::int64_t count = in[s].shape().dims().front().extent;
        ops::BiasForward(in[s],
                         stacked_bias.SliceViewDim(stack_dim, start, count),
                         out[s]);
        start += count;
      }
      return;
    }
    case OpKind::kReLU:
      ops::ReluForward(View(op.inputs[0]), MutableView(op.outputs[0]));
      return;
    case OpKind::kDropout: {
      const DropoutMask mask(r.dropout_seed, options_.dropout_prob);
      ops::DropoutForward(View(op.inputs[0]), mask,
                          MutableView(op.outputs[0]),
                          MutableView(op.outputs[1]));
      return;
    }
    case OpKind::kResidual:
    case OpKind::kResidualBwd:
      ops::ResidualForward(View(op.inputs[0]), View(op.inputs[1]),
                           MutableView(op.outputs[0]));
      return;
    case OpKind::kScaledSoftmax: {
      const DropoutMask mask(r.dropout_seed, options_.dropout_prob);
      if (options_.causal) {
        ops::CausalScaledSoftmaxForward(
            View(op.inputs[0]), ReduceDim(op), 'j', options_.attn_scale, mask,
            MutableView(op.outputs[0]), MutableView(op.outputs[1]),
            MutableView(op.outputs[2]));
      } else {
        ops::ScaledSoftmaxForward(
            View(op.inputs[0]), ReduceDim(op), options_.attn_scale, mask,
            MutableView(op.outputs[0]), MutableView(op.outputs[1]),
            MutableView(op.outputs[2]));
      }
      return;
    }
    case OpKind::kLayerNorm:
      ops::LayerNormForward(View(op.inputs[0]), View(op.inputs[1]),
                            View(op.inputs[2]), NormDim(op), options_.ln_eps,
                            MutableView(op.outputs[0]),
                            StatView(op.outputs[1]),
                            StatView(op.outputs[2]));
      return;
    case OpKind::kBiasDW:
      ops::BiasBackwardDW(View(r.a), MutableView(r.out));
      return;
    case OpKind::kReLUDX:
      ops::ReluBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                          MutableView(op.outputs[0]));
      return;
    case OpKind::kDropoutDX:
      ops::DropoutBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                             keep_scale_, MutableView(op.outputs[0]));
      return;
    case OpKind::kScaledSoftmaxDX:
      ops::ScaledSoftmaxBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                                   View(op.inputs[2]), ReduceDim(op),
                                   options_.attn_scale, keep_scale_,
                                   MutableView(op.outputs[0]));
      return;
    case OpKind::kLayerNormDX:
      ops::LayerNormBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                               View(op.inputs[2]), StatView(op.inputs[3]),
                               StatView(op.inputs[4]), NormDim(op),
                               MutableView(op.outputs[0]));
      return;
    case OpKind::kLayerNormDW:
      ops::LayerNormBackwardDW(View(op.inputs[0]), View(op.inputs[1]),
                               StatView(op.inputs[2]), StatView(op.inputs[3]),
                               NormDim(op), MutableView(op.outputs[0]),
                               MutableView(op.outputs[1]));
      return;
    case OpKind::kEmbed:
      require(!tokens_.empty(),
              "kEmbed needs token ids -- call BindTokens before Forward");
      ops::EmbeddingForwardKernel(View(op.inputs[0]), View(op.inputs[1]),
                                  tokens_, MutableView(op.outputs[0]));
      return;
    case OpKind::kEmbedDW:
      require(!tokens_.empty(),
              "kEmbedDW needs token ids -- call BindTokens before Backward");
      ops::EmbeddingBackwardKernel(View(op.inputs[0]), tokens_,
                                   MutableView(op.outputs[0]),
                                   MutableView(op.outputs[1]));
      return;
    case OpKind::kMseLoss:
      last_loss_ = ops::MseLossKernel(View(op.inputs[0]), View(op.inputs[1]),
                                      MutableView(op.outputs[1]));
      StatView(op.outputs[0]).data()[0] = static_cast<float>(last_loss_);
      return;
  }
  require(false, StrFormat("no dispatch for op '%s'", op.name.c_str()));
}

template class GraphExecutorT<Half>;
template class GraphExecutorT<float>;

}  // namespace xflow::graph
