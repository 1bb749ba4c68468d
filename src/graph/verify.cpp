#include "graph/verify.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "tensor/einsum.hpp"

namespace xflow::graph {

namespace {

using IssueList = std::vector<VerifyIssue>;

void Error(IssueList& issues, std::string rule, std::string op,
           std::string container, std::string message) {
  issues.push_back(VerifyIssue{VerifySeverity::kError, std::move(rule),
                               std::move(op), std::move(container),
                               std::move(message)});
}

/// Spec letter -> bound extent, accumulated across operands.
using DimMap = std::map<char, std::int64_t>;

/// Stacked operand resolution (the algebraic Q/K/V stacks, Sec. IV-D):
/// members must share rank and trailing extents; the effective operand is
/// member[0] with the leading extent summed. Member dim names beyond the
/// first are positional relabels (the paper's j->k / p->w renames).
std::optional<Shape> StackShapes(const std::vector<const Shape*>& members,
                                 std::string* why) {
  const Shape& first = *members.front();
  if (first.rank() == 0) {
    *why = "stacked member has rank 0";
    return std::nullopt;
  }
  std::int64_t lead = 0;
  for (const Shape* m : members) {
    if (m->rank() != first.rank()) {
      *why = StrFormat("stacked members %s and %s differ in rank",
                       ToString(first).c_str(), ToString(*m).c_str());
      return std::nullopt;
    }
    for (int d = 1; d < first.rank(); ++d) {
      const auto dd = static_cast<std::size_t>(d);
      if (m->dims()[dd].extent != first.dims()[dd].extent) {
        *why = StrFormat("stacked members %s and %s differ beyond the "
                         "stack dim",
                         ToString(first).c_str(), ToString(*m).c_str());
        return std::nullopt;
      }
    }
    lead += m->dims().front().extent;
  }
  std::vector<DimExt> dims = first.dims();
  dims.front().extent = lead;
  return Shape(std::move(dims));
}

/// Binds a tensor's extents to the spec letters `letters`, accumulating
/// into `ext` (shared across a, b and out so every letter's extent must
/// cohere). Binding is by name when the name sets agree -- memory order
/// is free -- and positional otherwise (a pure relabel, e.g. the
/// builders' whbj -> whbk value path).
bool BindExtents(const Shape& shape, const std::string& letters, DimMap& ext,
                 std::string* why) {
  if (static_cast<std::size_t>(shape.rank()) != letters.size()) {
    *why = StrFormat("%s does not match spec dims '%s'",
                     ToString(shape).c_str(), letters.c_str());
    return false;
  }
  std::string sorted_names = shape.names();
  std::string sorted_letters = letters;
  std::sort(sorted_names.begin(), sorted_names.end());
  std::sort(sorted_letters.begin(), sorted_letters.end());
  const bool by_name = sorted_names == sorted_letters;
  for (std::size_t d = 0; d < letters.size(); ++d) {
    const char letter = letters[d];
    const std::int64_t e =
        by_name ? shape.extent(letter) : shape.dims()[d].extent;
    const auto [it, inserted] = ext.emplace(letter, e);
    if (!inserted && it->second != e) {
      *why = StrFormat("dim '%c' would need extent %lld and %lld at once",
                       letter, static_cast<long long>(it->second),
                       static_cast<long long>(e));
      return false;
    }
  }
  return true;
}

DimMap ToDimMap(const Shape& s) {
  DimMap m;
  for (const auto& d : s.dims()) m[d.name] = d.extent;
  return m;
}

bool SameDims(const Shape& a, const Shape& b) {
  return a.rank() == b.rank() && ToDimMap(a) == ToDimMap(b);
}

/// Reduction-bearing kinds whose kernels split the reduction
/// deterministically (fixed chunk counts independent of thread count).
bool DeterministicReduction(OpKind kind) {
  switch (kind) {
    case OpKind::kContraction:
    case OpKind::kScaledSoftmax:
    case OpKind::kScaledSoftmaxDX:
    case OpKind::kLayerNorm:
    case OpKind::kLayerNormDX:
    case OpKind::kLayerNormDW:
    case OpKind::kBiasDW:
    case OpKind::kMseLoss:   // serial accumulation, one pass
    case OpKind::kEmbedDW:   // serial scatter-add over fp32 accumulators
      return true;
    default:
      return false;
  }
}

/// Validates operand counts and role metadata for `op`'s kind. Returns
/// false when shape inference should be skipped for this op.
bool CheckArity(const OpNode& op, int op_index, IssueList& issues,
                std::map<int, EinsumSpec>& specs) {
  bool ok = true;
  auto arity_error = [&](std::string msg) {
    Error(issues, "graph/arity", op.name, "", std::move(msg));
    ok = false;
  };
  auto expect = [&](bool cond, const char* what) {
    if (!cond) arity_error(what);
  };
  const std::size_t in = op.inputs.size();
  const std::size_t out = op.outputs.size();
  switch (op.kind) {
    case OpKind::kContraction:
      if (op.einsum.empty()) {
        arity_error("contraction has no einsum spec");
      } else {
        try {
          specs.emplace(op_index, EinsumSpec::Parse(op.einsum));
        } catch (const InvalidArgument& e) {
          arity_error(StrFormat("malformed einsum '%s': %s",
                                op.einsum.c_str(), e.what()));
        }
      }
      expect(in >= 2 && in <= 4,
             "contraction wants 2 operands (3-4 with one stacked block)");
      expect(out >= 1 && out <= 3,
             "contraction writes 1 output (or 2-3 stacked blocks)");
      break;
    case OpKind::kBias:
      expect((in == 2 && out == 1) || (in == 4 && out == 3),
             "bias wants (x, b) -> y or the stacked "
             "(x0, x1, x2, b) -> (y0, y1, y2)");
      break;
    case OpKind::kReLU:
      expect(in == 1 && out == 1, "relu wants x -> y");
      break;
    case OpKind::kDropout:
      expect(in == 1 && out == 2, "dropout wants x -> (y, mask)");
      break;
    case OpKind::kResidual:
    case OpKind::kResidualBwd:
      expect(in == 2 && out == 1, "residual wants (a, b) -> y");
      break;
    case OpKind::kScaledSoftmax:
      expect(in == 1 && out == 3,
             "scaled softmax wants x -> (y, mask, saved)");
      expect(!op.reduction_dims.empty(),
             "scaled softmax needs its reduction (key) dim");
      break;
    case OpKind::kLayerNorm:
      expect(in == 3 && out == 3,
             "layernorm wants (x, w, b) -> (y, mean, rstd)");
      expect(!op.reduction_dims.empty(),
             "layernorm needs its normalization dim");
      break;
    case OpKind::kBiasDW:
      expect((in == 1 || in == 3) && out == 1,
             "bias dW wants dy -> db (or 3 stacked blocks -> db)");
      break;
    case OpKind::kReLUDX:
      expect(in == 2 && out == 1, "relu dX wants (dy, y) -> dx");
      break;
    case OpKind::kDropoutDX:
      expect(in == 2 && out == 1, "dropout dX wants (dy, mask) -> dx");
      break;
    case OpKind::kScaledSoftmaxDX:
      expect(in == 3 && out == 1,
             "scaled softmax dX wants (dy, mask, saved) -> dx");
      expect(!op.reduction_dims.empty(),
             "scaled softmax dX needs its reduction (key) dim");
      break;
    case OpKind::kLayerNormDX:
      expect(in == 5 && out == 1,
             "layernorm dX wants (dy, w, x, mean, rstd) -> dx");
      expect(!op.reduction_dims.empty(),
             "layernorm dX needs its normalization dim");
      break;
    case OpKind::kLayerNormDW:
      expect(in == 4 && out == 2,
             "layernorm dW wants (dy, x, mean, rstd) -> (dw, db)");
      expect(!op.independent_dims.empty(),
             "layernorm dW needs its norm dim among independent dims");
      break;
    case OpKind::kEmbed:
      expect(in == 2 && out == 1,
             "embedding wants (token_table, pos_table) -> x");
      break;
    case OpKind::kEmbedDW:
      expect(in == 1 && out == 2,
             "embedding dW wants dx -> (d_token_table, d_pos_table)");
      break;
    case OpKind::kMseLoss:
      expect(in == 2 && out == 2, "MSE loss wants (y, target) -> (loss, dy)");
      expect(!op.reduction_dims.empty(),
             "MSE loss reduces over the whole space");
      break;
  }
  for (const auto& saved : op.saved_outputs) {
    if (std::find(op.outputs.begin(), op.outputs.end(), saved) ==
        op.outputs.end()) {
      arity_error(
          StrFormat("saved output '%s' is not an output", saved.c_str()));
    }
  }
  return ok;
}

void CheckContractionShapes(const DataflowGraph& g, const OpNode& op,
                            const EinsumSpec& spec, IssueList& issues) {
  auto shape_of = [&](const std::string& n) -> const Shape& {
    return g.tensor(n).shape;
  };
  // Output side, shared by every input candidate.
  Shape out_shape;
  if (op.outputs.size() == 1) {
    out_shape = shape_of(op.outputs.front());
  } else {
    std::vector<const Shape*> members;
    members.reserve(op.outputs.size());
    for (const auto& name : op.outputs) members.push_back(&shape_of(name));
    std::string why;
    auto stacked = StackShapes(members, &why);
    if (!stacked) {
      Error(issues, "shape/contraction", op.name, op.outputs.front(),
            StrFormat("stacked outputs do not form one block: %s",
                      why.c_str()));
      return;
    }
    out_shape = std::move(*stacked);
  }
  // Input candidates: plain (a, b), or one side is a stacked block --
  // b = stack(inputs[1..]) (the Q,K,V dX form) or a = stack(inputs[..n-2])
  // (the Q,K,V dW form).
  struct Candidate {
    Shape a, b;
  };
  std::vector<Candidate> candidates;
  if (op.inputs.size() == 2) {
    candidates.push_back({shape_of(op.inputs[0]), shape_of(op.inputs[1])});
  } else {
    std::string why;
    {
      std::vector<const Shape*> members;
      for (std::size_t i = 1; i < op.inputs.size(); ++i) {
        members.push_back(&shape_of(op.inputs[i]));
      }
      if (auto stacked = StackShapes(members, &why)) {
        candidates.push_back({shape_of(op.inputs[0]), std::move(*stacked)});
      }
    }
    {
      std::vector<const Shape*> members;
      for (std::size_t i = 0; i + 1 < op.inputs.size(); ++i) {
        members.push_back(&shape_of(op.inputs[i]));
      }
      if (auto stacked = StackShapes(members, &why)) {
        candidates.push_back(
            {std::move(*stacked), shape_of(op.inputs.back())});
      }
    }
    if (candidates.empty()) {
      Error(issues, "shape/contraction", op.name, "",
            StrFormat("multi-input contraction has no stackable operand "
                      "block: %s",
                      why.c_str()));
      return;
    }
  }
  std::string first_error;
  for (const Candidate& cand : candidates) {
    DimMap ext;
    std::string why;
    const bool fits = BindExtents(cand.a, spec.a, ext, &why) &&
                      BindExtents(cand.b, spec.b, ext, &why) &&
                      BindExtents(out_shape, spec.out, ext, &why);
    if (fits) return;
    if (first_error.empty()) first_error = why;
  }
  Error(issues, "shape/contraction", op.name, op.outputs.front(),
        StrFormat("einsum '%s' does not fit the declared operand shapes: %s",
                  op.einsum.c_str(), first_error.c_str()));
}

void CheckOpShapes(const DataflowGraph& g, const OpNode& op,
                   const std::map<int, EinsumSpec>& specs, int op_index,
                   IssueList& issues) {
  auto shape_of = [&](const std::string& n) -> const Shape& {
    return g.tensor(n).shape;
  };
  auto expect_same = [&](const char* rule, const std::string& a,
                         const std::string& b) {
    if (!SameDims(shape_of(a), shape_of(b))) {
      Error(issues, rule, op.name, b,
            StrFormat("'%s' is %s but '%s' is %s -- same space required",
                      a.c_str(), ToString(shape_of(a)).c_str(), b.c_str(),
                      ToString(shape_of(b)).c_str()));
    }
  };
  // Every (name, extent) of `vec` must appear in `base` (broadcast /
  // reduced-vector compatibility).
  auto expect_subset = [&](const char* rule, const Shape& base,
                           const std::string& vec) {
    const DimMap base_dims = ToDimMap(base);
    for (const auto& d : shape_of(vec).dims()) {
      const auto it = base_dims.find(d.name);
      if (it == base_dims.end() || it->second != d.extent) {
        Error(issues, rule, op.name, vec,
              StrFormat("'%s' %s does not broadcast over %s", vec.c_str(),
                        ToString(shape_of(vec)).c_str(),
                        ToString(base).c_str()));
        return;
      }
    }
  };
  // The effective input of a (possibly stacked) bias-family op: the
  // member blocks joined along their leading dim.
  auto stacked_input = [&](std::size_t count) -> std::optional<Shape> {
    std::vector<const Shape*> members;
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(&shape_of(op.inputs[i]));
    }
    std::string why;
    auto stacked = StackShapes(members, &why);
    if (!stacked) {
      Error(issues, "shape/elementwise", op.name, op.inputs.front(),
            StrFormat("stacked inputs do not form one block: %s",
                      why.c_str()));
    }
    return stacked;
  };
  // The norm dim of the statistical-normalization family, plus the
  // derived statistics space (input minus the reduced dim).
  auto reduced_dims = [&](const Shape& x, char r) {
    DimMap m = ToDimMap(x);
    m.erase(r);
    return m;
  };
  auto expect_stats = [&](const Shape& x, char r, const std::string& stat) {
    if (ToDimMap(shape_of(stat)) != reduced_dims(x, r)) {
      Error(issues, "shape/norm", op.name, stat,
            StrFormat("statistic '%s' is %s, expected %s reduced over '%c'",
                      stat.c_str(), ToString(shape_of(stat)).c_str(),
                      ToString(x).c_str(), r));
    }
  };
  auto expect_norm_vector = [&](const Shape& x, char r,
                                const std::string& vec) {
    const Shape& v = shape_of(vec);
    if (v.rank() != 1 || v.dims().front().name != r ||
        v.dims().front().extent != x.extent(r)) {
      Error(issues, "shape/norm", op.name, vec,
            StrFormat("'%s' is %s, expected the norm-dim vector %c[%lld]",
                      vec.c_str(), ToString(v).c_str(), r,
                      static_cast<long long>(x.has(r) ? x.extent(r) : -1)));
    }
  };
  auto expect_has_dim = [&](const Shape& x, char r) {
    if (!x.has(r)) {
      Error(issues, "shape/norm", op.name, op.inputs.front(),
            StrFormat("reduction dim '%c' is not a dim of %s", r,
                      ToString(x).c_str()));
      return false;
    }
    return true;
  };

  switch (op.kind) {
    case OpKind::kContraction:
      CheckContractionShapes(g, op, specs.at(op_index), issues);
      return;
    case OpKind::kBias: {
      if (op.inputs.size() == 2) {
        expect_same("shape/elementwise", op.inputs[0], op.outputs[0]);
        expect_subset("shape/elementwise", shape_of(op.inputs[0]),
                      op.inputs[1]);
        return;
      }
      // Stacked AIB: three member blocks plus the stacked bias vector.
      for (std::size_t s = 0; s < 3; ++s) {
        expect_same("shape/elementwise", op.inputs[s], op.outputs[s]);
      }
      if (auto eff = stacked_input(3)) {
        expect_subset("shape/elementwise", *eff, op.inputs.back());
      }
      return;
    }
    case OpKind::kReLU:
      expect_same("shape/elementwise", op.inputs[0], op.outputs[0]);
      return;
    case OpKind::kDropout:
      expect_same("shape/elementwise", op.inputs[0], op.outputs[0]);
      expect_same("shape/elementwise", op.inputs[0], op.outputs[1]);
      return;
    case OpKind::kResidual:
    case OpKind::kResidualBwd:
      expect_same("shape/elementwise", op.inputs[0], op.inputs[1]);
      expect_same("shape/elementwise", op.inputs[0], op.outputs[0]);
      return;
    case OpKind::kBiasDW: {
      if (op.inputs.size() == 1) {
        expect_subset("shape/elementwise", shape_of(op.inputs[0]),
                      op.outputs[0]);
        return;
      }
      // Stacked BAIB: the gradient of the stacked bias vector.
      if (auto eff = stacked_input(3)) {
        expect_subset("shape/elementwise", *eff, op.outputs[0]);
      }
      return;
    }
    case OpKind::kReLUDX:
    case OpKind::kDropoutDX:
      expect_same("shape/elementwise", op.inputs[0], op.inputs[1]);
      expect_same("shape/elementwise", op.inputs[0], op.outputs[0]);
      return;
    case OpKind::kScaledSoftmax: {
      const Shape& x = shape_of(op.inputs[0]);
      if (!expect_has_dim(x, op.reduction_dims.front().name)) return;
      for (const auto& out : op.outputs) {
        expect_same("shape/norm", op.inputs[0], out);
      }
      return;
    }
    case OpKind::kScaledSoftmaxDX: {
      const Shape& x = shape_of(op.inputs[0]);
      if (!expect_has_dim(x, op.reduction_dims.front().name)) return;
      expect_same("shape/norm", op.inputs[0], op.inputs[1]);
      expect_same("shape/norm", op.inputs[0], op.inputs[2]);
      expect_same("shape/norm", op.inputs[0], op.outputs[0]);
      return;
    }
    case OpKind::kLayerNorm: {
      const char r = op.reduction_dims.front().name;
      const Shape& x = shape_of(op.inputs[0]);
      if (!expect_has_dim(x, r)) return;
      expect_norm_vector(x, r, op.inputs[1]);
      expect_norm_vector(x, r, op.inputs[2]);
      expect_same("shape/norm", op.inputs[0], op.outputs[0]);
      expect_stats(x, r, op.outputs[1]);
      expect_stats(x, r, op.outputs[2]);
      return;
    }
    case OpKind::kLayerNormDX: {
      const char r = op.reduction_dims.front().name;
      const Shape& x = shape_of(op.inputs[2]);
      if (!expect_has_dim(x, r)) return;
      expect_same("shape/norm", op.inputs[2], op.inputs[0]);
      expect_norm_vector(x, r, op.inputs[1]);
      expect_stats(x, r, op.inputs[3]);
      expect_stats(x, r, op.inputs[4]);
      expect_same("shape/norm", op.inputs[2], op.outputs[0]);
      return;
    }
    case OpKind::kLayerNormDW: {
      const char r = op.independent_dims.front().name;
      const Shape& x = shape_of(op.inputs[1]);
      if (!expect_has_dim(x, r)) return;
      expect_same("shape/norm", op.inputs[1], op.inputs[0]);
      expect_stats(x, r, op.inputs[2]);
      expect_stats(x, r, op.inputs[3]);
      expect_norm_vector(x, r, op.outputs[0]);
      expect_norm_vector(x, r, op.outputs[1]);
      return;
    }
    case OpKind::kEmbed: {
      // (token_table [v,i], pos_table) -> x: the positional table must
      // broadcast over x, and the tables' embedding dim must match x's.
      const Shape& x = shape_of(op.outputs[0]);
      expect_subset("shape/elementwise", x, op.inputs[1]);
      const Shape& tok = shape_of(op.inputs[0]);
      if (!tok.has('i') || !x.has('i') ||
          tok.extent('i') != x.extent('i')) {
        Error(issues, "shape/elementwise", op.name, op.inputs[0],
              StrFormat("token table %s does not share the embedding dim "
                        "'i' of %s",
                        ToString(tok).c_str(), ToString(x).c_str()));
      }
      return;
    }
    case OpKind::kEmbedDW: {
      const Shape& dx = shape_of(op.inputs[0]);
      expect_subset("shape/elementwise", dx, op.outputs[1]);
      const Shape& tok = shape_of(op.outputs[0]);
      if (!tok.has('i') || !dx.has('i') ||
          tok.extent('i') != dx.extent('i')) {
        Error(issues, "shape/elementwise", op.name, op.outputs[0],
              StrFormat("token-table gradient %s does not share the "
                        "embedding dim 'i' of %s",
                        ToString(tok).c_str(), ToString(dx).c_str()));
      }
      return;
    }
    case OpKind::kMseLoss: {
      expect_same("shape/elementwise", op.inputs[0], op.inputs[1]);
      expect_same("shape/elementwise", op.inputs[0], op.outputs[1]);
      if (shape_of(op.outputs[0]).num_elements() != 1) {
        Error(issues, "shape/elementwise", op.name, op.outputs[0],
              StrFormat("scalar loss must hold one element, not %s",
                        ToString(shape_of(op.outputs[0])).c_str()));
      }
      return;
    }
  }
}

void CheckGraph(const DataflowGraph& g, IssueList& issues) {
  const auto& ops = g.ops();
  // Writers are rescanned from the op list: the graph's incremental
  // producer map cannot be trusted on fixture graphs built through
  // AddOpUnchecked (the whole point of this pass).
  std::map<std::string, std::vector<int>> writers;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const auto& out : ops[i].outputs) {
      writers[out].push_back(static_cast<int>(i));
    }
  }
  std::vector<bool> shapes_ok(ops.size(), true);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpNode& op = ops[i];
    for (const auto& in : op.inputs) {
      if (!g.HasTensor(in)) {
        Error(issues, "graph/dangling", op.name, in,
              "reads a container the graph does not declare");
        shapes_ok[i] = false;
      }
    }
    for (const auto& out : op.outputs) {
      if (!g.HasTensor(out)) {
        Error(issues, "graph/dangling", op.name, out,
              "writes a container the graph does not declare");
        shapes_ok[i] = false;
      }
    }
  }
  for (const auto& [name, w] : writers) {
    if (w.size() <= 1) continue;
    std::vector<std::string> names;
    names.reserve(w.size());
    for (int idx : w) names.push_back(ops[static_cast<std::size_t>(idx)].name);
    Error(issues, "graph/single-producer", Join(names, "', '"), name,
          StrFormat("container has %zu producers; exactly one writer is "
                    "allowed (SSA)",
                    w.size()));
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const auto& in : ops[i].inputs) {
      const auto it = writers.find(in);
      if (it == writers.end()) continue;  // graph input
      const int first_writer =
          *std::min_element(it->second.begin(), it->second.end());
      if (first_writer >= static_cast<int>(i)) {
        Error(issues, "graph/topo-order", ops[i].name, in,
              StrFormat("input is produced later by %s -- ops must be "
                        "listed in topological order",
                        OpRef(g, first_writer).c_str()));
      }
    }
  }
  std::map<int, EinsumSpec> specs;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!CheckArity(ops[i], static_cast<int>(i), issues, specs)) {
      shapes_ok[i] = false;
    }
    if (!ops[i].reduction_dims.empty() &&
        !DeterministicReduction(ops[i].kind)) {
      Error(issues, "determinism/reduction", ops[i].name, "",
            StrFormat("'%s' reduces over dims but is not in the "
                      "fixed-split deterministic kernel set",
                      ToString(ops[i].kind).c_str()));
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (shapes_ok[i]) {
      CheckOpShapes(g, ops[i], specs, static_cast<int>(i), issues);
    }
  }
}

bool HasGraphErrors(const IssueList& issues) {
  for (const auto& issue : issues) {
    if (issue.severity == VerifySeverity::kError &&
        (issue.rule_id.starts_with("graph/") ||
         issue.rule_id.starts_with("shape/"))) {
      return true;
    }
  }
  return false;
}

void CheckPlan(const DataflowGraph& g, const MemoryPlan& plan,
               const PlanOptions& opt, IssueList& issues) {
  const std::size_t alignment = opt.alignment;
  if (alignment == 0) {
    Error(issues, "plan/alignment", "", "", "options alignment is zero");
    return;
  }
  const int last_op = static_cast<int>(g.ops().size()) - 1;
  // ---- Liveness recomputed from the graph edges, independently of the
  // planner (deliberate duplication: a planner bug must not propagate).
  std::vector<std::pair<int, int>> op_span(g.ops().size());
  for (std::size_t i = 0; i < op_span.size(); ++i) {
    op_span[i] = {static_cast<int>(i), static_cast<int>(i)};
  }
  // Each fused span's ops, by index (absent ops dropped: PlanMemory
  // rejects partially present spans, and absent ones cover nothing).
  std::vector<std::vector<int>> spans;
  for (const auto& span : opt.fused_spans) {
    std::vector<int> members;
    for (const auto& op_name : span) {
      if (const int i = g.OpIndex(op_name); i >= 0) members.push_back(i);
    }
    if (members.empty()) continue;
    const auto [lo, hi] = std::minmax_element(members.begin(), members.end());
    for (int i : members) op_span[static_cast<std::size_t>(i)] = {*lo, *hi};
    spans.push_back(std::move(members));
  }
  auto excluded = [&](const std::string& name) {
    return std::find(opt.exclude.begin(), opt.exclude.end(), name) !=
           opt.exclude.end();
  };
  // `expanded` mirrors the planner (fused spans widen intervals); the
  // plain form is per-op concurrency, which is what the overlap rule
  // checks -- span-induced concurrency is plan/fused-atomic's job, so a
  // broken plan trips exactly one of the two.
  auto interval = [&](const std::string& name, bool expanded) {
    const int producer = g.ProducerOf(name);
    const int first =
        producer < 0
            ? -1
            : (expanded ? op_span[static_cast<std::size_t>(producer)].first
                        : producer);
    const auto& consumers = g.ConsumersOf(name);
    int last = -1;
    for (int c : consumers) {
      last = std::max(
          last, expanded ? op_span[static_cast<std::size_t>(c)].second : c);
    }
    if (producer < 0 || consumers.empty()) {
      last = last_op;
      // Mirrors the planner's checkpoint exceptions: an unread output of a
      // recompute clone, and an original whose backward readers were
      // retargeted to its "@r" clone (stored ".y" boundaries exempt), are
      // not step outputs -- both die with their producer.
      if (producer >= 0 && consumers.empty()) {
        const bool clone_byproduct =
            !g.ops()[static_cast<std::size_t>(producer)].recompute_of.empty();
        const bool recompute_dropped =
            g.HasTensor(name + "@r") && !name.ends_with(".y");
        if (clone_byproduct || recompute_dropped) {
          last = expanded ? op_span[static_cast<std::size_t>(producer)].second
                          : producer;
        }
      }
    }
    return std::pair<int, int>{first, std::max(first, last)};
  };

  // ---- Classify placements into units (group alias + members, or one
  // container).
  struct VUnit {
    std::string name;
    const TensorPlacement* alias = nullptr;
    std::vector<const TensorPlacement*> members;
  };
  std::vector<VUnit> units;
  std::set<std::string> used;
  for (const auto& group : opt.groups) {
    std::size_t present = 0;
    for (const auto& m : group.members) present += g.HasTensor(m);
    if (present == 0) continue;
    if (present != group.members.size()) {
      Error(issues, "plan/group", "", group.name,
            "plan group is only partially present in the graph");
      continue;
    }
    VUnit u;
    u.name = group.name;
    if (plan.Contains(group.name)) {
      u.alias = &plan.at(group.name);
      used.insert(group.name);
    } else if (group.members.size() > 1) {
      Error(issues, "plan/coverage", "", group.name,
            "plan is missing the group's spanning alias");
    }
    for (const auto& m : group.members) {
      if (!plan.Contains(m)) {
        Error(issues, "plan/coverage", "", m,
              "group member is missing from the plan");
        continue;
      }
      u.members.push_back(&plan.at(m));
      used.insert(m);
    }
    if (!u.members.empty()) units.push_back(std::move(u));
  }
  for (const auto& [name, p] : plan.placements()) {
    if (used.contains(name)) continue;
    if (!g.HasTensor(name)) {
      Error(issues, "plan/coverage", "", name,
            "plan contains a container the graph does not declare");
      continue;
    }
    VUnit u;
    u.name = name;
    u.members.push_back(&p);
    units.push_back(std::move(u));
  }

  // ---- Per-placement checks over graph containers.
  for (const auto& [name, p] : plan.placements()) {
    if (!g.HasTensor(name)) continue;
    const TensorNode& t = g.tensor(name);
    if (t.is_weight) {
      Error(issues, "plan/coverage", "", name,
            "weights persist across steps and must not be planned");
    }
    if (excluded(name)) {
      Error(issues, "plan/coverage", "", name,
            "container is excluded from planning but planned anyway");
    }
    if (ToDimMap(p.shape) != ToDimMap(t.shape)) {
      Error(issues, "plan/size", "", name,
            StrFormat("planned shape %s differs from the declared %s",
                      ToString(p.shape).c_str(),
                      ToString(t.shape).c_str()));
      continue;
    }
    const std::size_t expected =
        opt.elem_bytes ? opt.elem_bytes(t) : opt.default_elem_bytes;
    if (p.elem_bytes != expected) {
      Error(issues, "plan/size", "", name,
            StrFormat("element size %zu, but the options say %zu",
                      p.elem_bytes, expected));
    }
    const auto elements = static_cast<std::size_t>(t.shape.num_elements());
    if (p.elem_bytes == 0 || p.bytes != elements * p.elem_bytes) {
      Error(issues, "plan/size", "", name,
            StrFormat("spans %zu bytes but holds %zu elements of %zu bytes",
                      p.bytes, elements, p.elem_bytes));
    }
  }
  for (const auto& [name, p] : plan.placements()) {
    if (p.offset + p.bytes > plan.PeakBytes()) {
      Error(issues, "plan/peak", "", name,
            StrFormat("placement ends at %zu, past the plan's peak of %zu "
                      "bytes",
                      p.offset + p.bytes, plan.PeakBytes()));
    }
  }

  // ---- Unit-level checks: group tiling, liveness, alignment, overlap.
  // Saved activations -- containers a forward op produces and a backward
  // op (or recompute clone) reads -- are what whole-stack planning must
  // keep distinct across layers; byte sharing that involves one is
  // reported as plan/cross-layer-liveness instead of plain plan/overlap.
  const int bwd_begin = g.BackwardBegin();
  auto saved_activation = [&](const std::string& name) {
    const int producer = g.ProducerOf(name);
    if (producer < 0 || producer >= bwd_begin) return false;
    for (int c : g.ConsumersOf(name)) {
      if (c >= bwd_begin) return true;
    }
    return false;
  };
  struct UnitExtent {
    std::string name;
    std::size_t begin = 0, end = 0;
    int first = 0, last = 0;
    bool saved = false;
  };
  std::vector<UnitExtent> extents;
  for (const VUnit& u : units) {
    const TensorPlacement* rep = u.alias != nullptr ? u.alias
                                                    : u.members.front();
    if (u.alias != nullptr || u.members.size() > 1) {
      for (const TensorPlacement* m : u.members) {
        if (m->first_use != rep->first_use || m->last_use != rep->last_use ||
            m->pinned != rep->pinned) {
          Error(issues, "plan/group", "", m->name,
                StrFormat("member interval [%d, %d] differs from its "
                          "group's [%d, %d]",
                          m->first_use, m->last_use, rep->first_use,
                          rep->last_use));
        }
      }
    }
    if (u.alias != nullptr) {
      if (u.alias->elem_bytes != u.members.front()->elem_bytes) {
        Error(issues, "plan/group", "", u.name,
              "alias element size differs from its members");
      }
      // Zero-copy consistency: the members must tile the alias range
      // exactly and contiguously, in declared order.
      std::size_t off = u.alias->offset;
      for (const TensorPlacement* m : u.members) {
        if (m->offset != off) {
          Error(issues, "plan/group", "", m->name,
                StrFormat("member starts at %zu; the zero-copy stack "
                          "needs it at %zu",
                          m->offset, off));
          off = m->offset;  // resync: report each break once
        }
        off += m->bytes;
      }
      if (off != u.alias->offset + u.alias->bytes) {
        Error(issues, "plan/group", "", u.name,
              StrFormat("members tile %zu bytes but the alias spans %zu",
                        off - u.alias->offset, u.alias->bytes));
      }
    }
    // Liveness: recompute the unit's merged interval from graph edges.
    int comp_first = INT_MAX;
    int comp_last = -1;
    int plain_first = INT_MAX;
    int plain_last = -1;
    for (const TensorPlacement* m : u.members) {
      const auto [first, last] = interval(m->name, /*expanded=*/true);
      comp_first = std::min(comp_first, first);
      comp_last = std::max(comp_last, last);
      const auto [pf, pl] = interval(m->name, /*expanded=*/false);
      plain_first = std::min(plain_first, pf);
      plain_last = std::max(plain_last, pl);
    }
    const bool comp_pinned = comp_first < 0;
    if (rep->first_use != comp_first || rep->last_use != comp_last) {
      Error(issues, "plan/liveness", "", u.name,
            StrFormat("recorded interval [%d, %d] but the graph implies "
                      "[%d, %d]",
                      rep->first_use, rep->last_use, comp_first, comp_last));
    }
    if (rep->pinned != comp_pinned) {
      Error(issues, "plan/pinned", "", u.name,
            comp_pinned
                ? "graph input must be recorded pinned (never recycled)"
                : "recorded pinned but the container is not a graph input");
    }
    if (rep->offset % alignment != 0) {
      Error(issues, "plan/alignment", "", u.name,
            StrFormat("offset %zu is not a multiple of %zu", rep->offset,
                      alignment));
    }
    bool saved = false;
    for (const TensorPlacement* m : u.members) {
      saved = saved || saved_activation(m->name);
    }
    extents.push_back({u.name, rep->offset, rep->offset + rep->bytes,
                       plain_first, plain_last, saved});
  }
  for (const auto& [name, t] : g.tensors()) {
    if (t.is_weight || excluded(name)) continue;
    if (!plan.Contains(name)) {
      Error(issues, "plan/coverage", "", name,
            "live container is missing from the plan");
    }
  }
  for (std::size_t i = 0; i < extents.size(); ++i) {
    for (std::size_t j = i + 1; j < extents.size(); ++j) {
      const UnitExtent& a = extents[i];
      const UnitExtent& b = extents[j];
      if (a.begin >= b.end || b.begin >= a.end) continue;
      if (a.first <= b.last && b.first <= a.last) {
        if (a.saved || b.saved) {
          const UnitExtent& s = a.saved ? a : b;
          const UnitExtent& o = a.saved ? b : a;
          Error(issues, "plan/cross-layer-liveness", "", s.name,
                StrFormat("saved activation shares bytes with '%s' inside "
                          "its store-until-backward window ([%d, %d] vs "
                          "[%d, %d]) -- the backward pass would read "
                          "clobbered data",
                          o.name.c_str(), s.first, s.last, o.first, o.last));
        } else {
          Error(issues, "plan/overlap", "", a.name,
                StrFormat("shares bytes with '%s' while both are live "
                          "([%d, %d] vs [%d, %d])",
                          b.name.c_str(), a.first, a.last, b.first, b.last));
        }
      }
    }
  }
  // ---- Concurrent overlap: the task scheduler runs ops with no graph
  // path between them at the same time, so byte reuse justified only by
  // interval disjointness is a data race waiting to happen. For every
  // pair of byte-sharing containers, every access to one must be ordered
  // against every *write* to the other by actual graph edges (reads on
  // both sides are harmless). Independent of the options on purpose: the
  // rule re-derives accessors and reachability from the graph alone.
  {
    // Successor closure per op (own bit set). Ops are in topological
    // order here -- rule graph/topo-order gates all plan checks.
    const std::size_t nops = g.ops().size();
    const std::size_t words = (nops + 63) / 64;
    std::vector<std::uint64_t> closure(nops * words, 0);
    for (std::size_t i = nops; i-- > 0;) {
      std::uint64_t* row = closure.data() + i * words;
      row[i / 64] |= std::uint64_t{1} << (i % 64);
      for (const auto& out : g.ops()[i].outputs) {
        for (int c : g.ConsumersOf(out)) {
          const std::uint64_t* crow =
              closure.data() + static_cast<std::size_t>(c) * words;
          for (std::size_t w = 0; w < words; ++w) row[w] |= crow[w];
        }
      }
    }
    auto reaches = [&](int a, int b) {
      return ((closure[static_cast<std::size_t>(a) * words +
                       static_cast<std::size_t>(b) / 64] >>
               (static_cast<std::size_t>(b) % 64)) &
              1u) != 0;
    };
    struct Touched {
      const TensorPlacement* p = nullptr;
      int producer = -1;
      std::vector<int> accessors;  // producer + consumers
    };
    std::vector<Touched> touched;
    for (const auto& [name, p] : plan.placements()) {
      if (!g.HasTensor(name)) continue;  // group aliases have no edges
      Touched t;
      t.p = &p;
      t.producer = g.ProducerOf(name);
      if (t.producer >= 0) t.accessors.push_back(t.producer);
      for (int c : g.ConsumersOf(name)) t.accessors.push_back(c);
      touched.push_back(std::move(t));
    }
    for (std::size_t i = 0; i < touched.size(); ++i) {
      for (std::size_t j = i + 1; j < touched.size(); ++j) {
        const Touched& x = touched[i];
        const Touched& y = touched[j];
        if (x.p->offset >= y.p->offset + y.p->bytes ||
            y.p->offset >= x.p->offset + x.p->bytes) {
          continue;
        }
        // Clone-involved byte sharing is exempt: recompute clones have no
        // graph path to the subgraphs whose bytes they reuse, but the
        // executor orders steps by the slab bytes they touch
        // (BuildStepDeps), which serializes byte-sharing steps in schedule
        // order, and the liveness rules above already rejected any window
        // overlap. Mirrors the planner's clone relaxation
        // (graph/memory_plan.cpp).
        const auto clone_made = [&](const Touched& t) {
          return t.producer >= 0 &&
                 !g.ops()[static_cast<std::size_t>(t.producer)]
                      .recompute_of.empty();
        };
        if (clone_made(x) || clone_made(y)) continue;
        bool reported = false;
        for (int p : x.accessors) {
          for (int q : y.accessors) {
            if (p == q) continue;
            if (p != x.producer && q != y.producer) continue;  // both read
            if (reaches(p, q) || reaches(q, p)) continue;
            // The Forward()/Backward() call boundary is a hard
            // synchronization point: accesses on opposite sides of it can
            // never run concurrently even without a graph path (recompute
            // clones count as backward). The planner's concurrency check
            // relies on the same barrier (graph/memory_plan.cpp).
            if ((p < bwd_begin) != (q < bwd_begin)) continue;
            Error(issues, "plan/concurrent-overlap",
                  g.ops()[static_cast<std::size_t>(p)].name, x.p->name,
                  StrFormat("shares bytes with '%s', but the graph has no "
                            "path between '%s' and '%s' and one of them "
                            "writes -- the scheduler may run them "
                            "concurrently",
                            y.p->name.c_str(),
                            g.ops()[static_cast<std::size_t>(p)].name.c_str(),
                            g.ops()[static_cast<std::size_t>(q)].name.c_str()));
            reported = true;
            break;
          }
          if (reported) break;
        }
      }
    }
  }
  // ---- Fused-kernel atomicity: inside one fused launch every input is
  // read while the outputs are written, so their bytes must be disjoint.
  for (const std::vector<int>& span : spans) {
    std::set<std::string> ins, outs;
    std::vector<std::string> names;
    for (const int i : span) {
      const OpNode& op = g.ops()[static_cast<std::size_t>(i)];
      names.push_back(op.name);
      for (const auto& in : op.inputs) {
        if (plan.Contains(in) && g.HasTensor(in)) ins.insert(in);
      }
      for (const auto& out : op.outputs) {
        if (plan.Contains(out) && g.HasTensor(out)) outs.insert(out);
      }
    }
    for (const auto& out : outs) {
      const TensorPlacement& po = plan.at(out);
      for (const auto& in : ins) {
        if (in == out) continue;
        const TensorPlacement& pi = plan.at(in);
        if (po.offset < pi.offset + pi.bytes &&
            pi.offset < po.offset + po.bytes) {
          Error(issues, "plan/fused-atomic", Join(names, "' + '"), out,
                StrFormat("fused-kernel output shares bytes with span "
                          "input '%s'",
                          in.c_str()));
        }
      }
    }
  }
}

}  // namespace

std::string ToString(const VerifyIssue& issue) {
  std::string s =
      issue.severity == VerifySeverity::kError ? "[error] " : "[warning] ";
  s += issue.rule_id;
  if (!issue.op.empty()) s += StrFormat(" (op '%s')", issue.op.c_str());
  if (!issue.container.empty()) {
    s += StrFormat(" (container '%s')", issue.container.c_str());
  }
  s += ": ";
  s += issue.message;
  return s;
}

bool VerifyReport::ok() const { return error_count() == 0; }

int VerifyReport::error_count() const {
  int n = 0;
  for (const auto& issue : issues) {
    n += issue.severity == VerifySeverity::kError;
  }
  return n;
}

bool VerifyReport::Has(std::string_view rule_id) const {
  for (const auto& issue : issues) {
    if (issue.rule_id == rule_id) return true;
  }
  return false;
}

std::string VerifyReport::Summary() const {
  std::string s = StrFormat("%zu issue(s), %d error(s)", issues.size(),
                            error_count());
  for (const auto& issue : issues) {
    s += "\n  ";
    s += ToString(issue);
  }
  return s;
}

std::string OpRef(const DataflowGraph& graph, int op_index) {
  if (op_index < 0 ||
      op_index >= static_cast<int>(graph.ops().size())) {
    return StrFormat("op #%d", op_index);
  }
  const OpNode& op = graph.ops()[static_cast<std::size_t>(op_index)];
  return StrFormat("op '%s' (#%d, %s)", op.name.c_str(), op_index,
                   ToString(op.kind).c_str());
}

VerifyReport Verify(const DataflowGraph& graph) {
  VerifyReport report;
  CheckGraph(graph, report.issues);
  return report;
}

VerifyReport Verify(const DataflowGraph& graph, const MemoryPlan& plan,
                    const PlanOptions& options) {
  VerifyReport report = Verify(graph);
  if (!HasGraphErrors(report.issues)) {
    CheckPlan(graph, plan, options, report.issues);
  }
  return report;
}

}  // namespace xflow::graph
