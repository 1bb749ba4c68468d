// Static verification of (graph, plan, binding) triples.
//
// Since PR 5 the planned DataflowGraph is the thing that actually
// executes, so a planner or builder bug no longer skews an accounting
// number -- it silently corrupts activations. This verifier re-derives
// every property the executor relies on from first principles (shapes
// from the einsum specs, liveness from the graph edges, byte disjointness
// from the recorded intervals) and cross-checks it against what the
// builder declared and the planner recorded, the same whole-program
// validation DaCe runs before transforming an SDFG.
//
// Rules (the `rule_id` of each VerifyIssue):
//   graph/topo-order        ops are listed after their input producers
//   graph/single-producer   every container has at most one writer (SSA)
//   graph/dangling          ops reference only declared containers
//   graph/arity             operand counts/roles are valid for the OpKind
//   shape/contraction       einsum output/operand extents re-derived from
//                           the spec (stacked AIB/BAIB forms included)
//   shape/elementwise       element-wise ops preserve their space; bias
//                           vectors broadcast over declared dims
//   shape/norm              softmax/layernorm statistics have the reduced
//                           space; scale/bias vectors span the norm dim
//   plan/coverage           plan covers exactly the planned container set
//                           (no weights, no excluded, nothing unknown)
//   plan/size               placement bytes == elements * element size
//   plan/alignment          placement bases are alignment-multiples
//   plan/overlap            byte ranges only shared across disjoint per-op
//                           live intervals (span-induced concurrency is
//                           plan/fused-atomic's job)
//   plan/cross-layer-liveness  the overlap involves a saved activation (a
//                           forward output the backward pass reads): byte
//                           sharing inside its store-until-backward window
//                           would hand the backward pass clobbered data --
//                           the failure mode whole-stack planning must
//                           never produce
//   plan/concurrent-overlap byte-sharing containers must have every access
//                           to one ordered by graph paths against every
//                           write to the other -- the task scheduler runs
//                           path-free ops concurrently, so interval
//                           disjointness alone no longer licenses reuse
//   plan/liveness           recorded intervals match the intervals
//                           recomputed from edges and fused spans
//   plan/pinned             recorded pinned flags == "is a graph input"
//   plan/group              group aliases tiled exactly by their members,
//                           contiguously and in order (zero-copy stacks)
//   plan/fused-atomic       no fused-kernel op span aliases an input byte
//                           range with an output byte range
//   plan/peak               every placement fits under peak_bytes
//   determinism/reduction   reduction-bearing ops use the fixed-split
//                           deterministic kernel set
//
// That the executor launches exactly the fused spans the plan assumed
// holds by construction: it launches the plan's own spans
// (MemoryPlan::options()), so no rule compares two schedules.
//
// The executor's pre-flight runs Verify(graph, plan, plan.options()) and
// adds binding/* rules (completeness and writability of external
// containers), reusing VerifyIssue/VerifyReport.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"

namespace xflow::graph {

enum class VerifySeverity { kWarning, kError };

/// One structured diagnostic. `op` / `container` name the graph nodes
/// involved (empty when the rule concerns none); `rule_id` is stable and
/// machine-matchable (tests assert on it), `message` is for humans.
struct VerifyIssue {
  VerifySeverity severity = VerifySeverity::kError;
  std::string rule_id;
  std::string op;
  std::string container;
  std::string message;
};

/// "[error] plan/overlap (container 'a'): ..." -- one line, no newline.
std::string ToString(const VerifyIssue& issue);

struct VerifyReport {
  std::vector<VerifyIssue> issues;

  /// No errors (warnings do not fail verification).
  [[nodiscard]] bool ok() const;
  [[nodiscard]] int error_count() const;
  /// True when any issue carries `rule_id` (errors and warnings alike).
  [[nodiscard]] bool Has(std::string_view rule_id) const;
  /// All issues, one ToString line each, preceded by a count header.
  [[nodiscard]] std::string Summary() const;
};

/// "op 'layernorm 1' (#14, layer normalization)" -- the diagnostic form
/// shared by verifier messages and executor error paths.
std::string OpRef(const DataflowGraph& graph, int op_index);

/// Graph well-formedness + shape inference + the graph-level determinism
/// lint (rules graph/*, shape/*, determinism/reduction).
VerifyReport Verify(const DataflowGraph& graph);

/// Graph rules plus plan safety, cross-checked against the exact
/// planning inputs (normally plan.options()): interval equality (fused
/// spans included), group order, element sizes, exclusions and
/// alignment. Plan rules are skipped when the graph itself has errors.
VerifyReport Verify(const DataflowGraph& graph, const MemoryPlan& plan,
                    const PlanOptions& options);

/// Gate for the executor's pre-flight verification: the XFLOW_VERIFY
/// environment variable when set (1/true/on/yes or 0/false/off/no),
/// otherwise on in Debug builds (!NDEBUG) and off in Release. Read once
/// per process.
bool PreflightVerifyEnabled();

/// The pure decision behind PreflightVerifyEnabled (exposed for tests):
/// `value` is the environment string or nullptr for unset.
bool VerifyEnvEnabled(const char* value, bool debug_default);

}  // namespace xflow::graph
