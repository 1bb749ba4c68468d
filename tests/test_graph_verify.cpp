// The static verifier must catch every class of graph/plan corruption
// with exactly the rule that owns it -- each broken fixture here trips
// its own rule and nothing else -- while every (graph, plan) pair the
// builders and planner produce verifies clean. The executor's pre-flight
// and error paths reuse the same diagnostics, so failures name graph
// containers and ops instead of surfacing bare indices.
#include "graph/verify.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "graph/builder.hpp"
#include "graph/executor.hpp"
#include "graph/memory_plan.hpp"
#include "tensor/tensor.hpp"
#include "tensor/workspace.hpp"
#include "transformer/arena.hpp"

namespace xflow::graph {
namespace {

/// Every error in `report` must carry `rule` (and there must be at least
/// one): the fixture broke exactly one property, so any other rule firing
/// means two rules overlap on one corruption.
void ExpectOnlyRule(const VerifyReport& report, const std::string& rule) {
  EXPECT_FALSE(report.ok()) << "expected " << rule << " to fire\n"
                            << report.Summary();
  for (const auto& issue : report.issues) {
    EXPECT_EQ(issue.rule_id, rule) << ToString(issue);
  }
}

MemoryPlan Corrupted(
    const MemoryPlan& plan,
    const std::function<void(std::map<std::string, TensorPlacement>&)>&
        mutate,
    std::size_t peak_delta = 0) {
  auto placements = plan.placements();
  mutate(placements);
  return MemoryPlan::FromPlacements(std::move(placements),
                                    plan.PeakBytes() + peak_delta,
                                    plan.NaiveSumBytes());
}

// ------------------------------------------------------------ graph rules

TEST(VerifyGraph, TopoOrderViolation) {
  DataflowGraph g;
  const Shape bj("bj", {2, 3});
  g.AddTensor("x", bj);
  g.AddTensor("a", bj);
  g.AddTensor("y", bj);
  // The consumer is listed before the producer of `a`.
  g.AddOpUnchecked({.name = "use",
                    .kind = OpKind::kReLU,
                    .inputs = {"a"},
                    .outputs = {"y"}});
  g.AddOpUnchecked({.name = "make",
                    .kind = OpKind::kReLU,
                    .inputs = {"x"},
                    .outputs = {"a"}});
  const auto report = Verify(g);
  ExpectOnlyRule(report, "graph/topo-order");
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].op, "use");
  EXPECT_EQ(report.issues[0].container, "a");
  EXPECT_NE(report.issues[0].message.find("op 'make'"), std::string::npos);
}

TEST(VerifyGraph, SingleProducerViolation) {
  DataflowGraph g;
  const Shape bj("bj", {2, 3});
  g.AddTensor("x", bj);
  g.AddTensor("y", bj);
  g.AddOpUnchecked({.name = "w1",
                    .kind = OpKind::kReLU,
                    .inputs = {"x"},
                    .outputs = {"y"}});
  g.AddOpUnchecked({.name = "w2",
                    .kind = OpKind::kReLU,
                    .inputs = {"x"},
                    .outputs = {"y"}});
  const auto report = Verify(g);
  ExpectOnlyRule(report, "graph/single-producer");
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].container, "y");
}

TEST(VerifyGraph, DanglingReference) {
  DataflowGraph g;
  g.AddTensor("y", Shape("bj", {2, 3}));
  g.AddOpUnchecked({.name = "r",
                    .kind = OpKind::kReLU,
                    .inputs = {"ghost"},
                    .outputs = {"y"}});
  const auto report = Verify(g);
  ExpectOnlyRule(report, "graph/dangling");
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].container, "ghost");
}

TEST(VerifyGraph, ArityViolation) {
  DataflowGraph g;
  const Shape bj("bj", {2, 3});
  g.AddTensor("x", bj);
  g.AddTensor("b", bj);
  g.AddTensor("c", bj);
  g.AddTensor("y", bj);
  // Bias takes (x, b) -> y; a third operand is malformed.
  g.AddOpUnchecked({.name = "bad bias",
                    .kind = OpKind::kBias,
                    .inputs = {"x", "b", "c"},
                    .outputs = {"y"}});
  ExpectOnlyRule(Verify(g), "graph/arity");
}

TEST(VerifyGraph, ContractionWithoutEinsum) {
  DataflowGraph g;
  g.AddTensor("x", Shape("ik", {2, 3}));
  g.AddTensor("w", Shape("kj", {3, 4}), /*is_weight=*/true);
  g.AddTensor("y", Shape("ij", {2, 4}));
  g.AddOpUnchecked({.name = "mm",
                    .kind = OpKind::kContraction,
                    .inputs = {"x", "w"},
                    .outputs = {"y"}});
  ExpectOnlyRule(Verify(g), "graph/arity");
}

TEST(VerifyGraph, ContractionShapeMismatch) {
  DataflowGraph g;
  g.AddTensor("x", Shape("ik", {2, 3}));
  g.AddTensor("w", Shape("kj", {3, 4}), /*is_weight=*/true);
  // j must be 4 to fit ik,kj->ij; the declared output says 5.
  g.AddTensor("y", Shape("ij", {2, 5}));
  g.AddOp({.name = "mm",
           .kind = OpKind::kContraction,
           .inputs = {"x", "w"},
           .outputs = {"y"},
           .einsum = "ik,kj->ij"});
  const auto report = Verify(g);
  ExpectOnlyRule(report, "shape/contraction");
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].op, "mm");
}

TEST(VerifyGraph, ElementwiseShapeMismatch) {
  DataflowGraph g;
  g.AddTensor("x", Shape("bj", {2, 3}));
  g.AddTensor("b", Shape("j", {3}), /*is_weight=*/true);
  g.AddTensor("y", Shape("bj", {2, 4}));  // wrong j extent
  g.AddOp({.name = "bias",
           .kind = OpKind::kBias,
           .inputs = {"x", "b"},
           .outputs = {"y"}});
  ExpectOnlyRule(Verify(g), "shape/elementwise");
}

TEST(VerifyGraph, NormStatisticShapeMismatch) {
  DataflowGraph g;
  g.AddTensor("x", Shape("bj", {2, 3}));
  g.AddTensor("w", Shape("j", {3}), /*is_weight=*/true);
  g.AddTensor("b", Shape("j", {3}), /*is_weight=*/true);
  g.AddTensor("y", Shape("bj", {2, 3}));
  // Statistics reduce over j, so they live in the b space; mean is
  // declared in the j space instead.
  g.AddTensor("mean", Shape("j", {3}));
  g.AddTensor("rstd", Shape("b", {2}));
  g.AddOp({.name = "ln",
           .kind = OpKind::kLayerNorm,
           .inputs = {"x", "w", "b"},
           .outputs = {"y", "mean", "rstd"},
           .reduction_dims = {{'j', 3}}});
  const auto report = Verify(g);
  ExpectOnlyRule(report, "shape/norm");
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].container, "mean");
}

TEST(VerifyGraph, NondeterministicReduction) {
  DataflowGraph g;
  g.AddTensor("x", Shape("bj", {2, 3}));
  g.AddTensor("y", Shape("bj", {2, 3}));
  // ReLU is not in the fixed-split deterministic kernel set, so a
  // reduction declared on it is a schedule bug.
  g.AddOp({.name = "r",
           .kind = OpKind::kReLU,
           .inputs = {"x"},
           .outputs = {"y"},
           .reduction_dims = {{'j', 3}}});
  ExpectOnlyRule(Verify(g), "determinism/reduction");
}

// ------------------------------------------------------------- plan rules
//
// Fixtures perturb the planner's own output for a relu chain
// x -> a -> b -> y (one producer per tensor, disjoint interior
// lifetimes), so each corruption is the *only* divergence from a valid
// plan.

struct ChainFixture {
  DataflowGraph graph;
  PlanOptions options;
  MemoryPlan plan;
};

ChainFixture MakeChain() {
  ChainFixture f;
  const Shape bj("bj", {2, 3});
  for (const char* name : {"x", "a", "b", "y"}) {
    f.graph.AddTensor(name, bj);
  }
  f.graph.AddOp({.name = "r0",
                 .kind = OpKind::kReLU,
                 .inputs = {"x"},
                 .outputs = {"a"}});
  f.graph.AddOp({.name = "r1",
                 .kind = OpKind::kReLU,
                 .inputs = {"a"},
                 .outputs = {"b"}});
  f.graph.AddOp({.name = "r2",
                 .kind = OpKind::kReLU,
                 .inputs = {"b"},
                 .outputs = {"y"}});
  f.plan = PlanMemory(f.graph, f.options);
  return f;
}

TEST(VerifyPlan, ChainPlanVerifiesClean) {
  const auto f = MakeChain();
  const auto report = Verify(f.graph, f.plan, f.options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(VerifyPlan, MissingContainer) {
  const auto f = MakeChain();
  const auto plan =
      Corrupted(f.plan, [](auto& p) { p.erase("a"); });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/coverage");
}

TEST(VerifyPlan, UndeclaredContainer) {
  const auto f = MakeChain();
  const auto plan = Corrupted(f.plan, [](auto& p) {
    p["mystery"] = TensorPlacement{.name = "mystery",
                                   .elem_bytes = 4,
                                   .offset = 0,
                                   .bytes = 8,
                                   .first_use = 0,
                                   .last_use = 0};
  });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/coverage");
}

TEST(VerifyPlan, WrongSize) {
  const auto f = MakeChain();
  const auto plan =
      Corrupted(f.plan, [](auto& p) { p.at("y").bytes -= 4; });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/size");
}

TEST(VerifyPlan, MisalignedOffset) {
  const auto f = MakeChain();
  // Shift the topmost placement, so nothing above it can be overlapped;
  // peak is raised so only the alignment rule is at stake.
  const auto plan = Corrupted(
      f.plan,
      [](auto& p) {
        auto top = p.begin();
        for (auto it = p.begin(); it != p.end(); ++it) {
          if (it->second.offset > top->second.offset) top = it;
        }
        top->second.offset += 63;
      },
      /*peak_delta=*/128);
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/alignment");
}

TEST(VerifyPlan, OverlappingLiveContainers) {
  const auto f = MakeChain();
  // a is live [0, 1] and b [1, 2]: both are live at op 1, so sharing
  // bytes corrupts a's value mid-step.
  const auto plan = Corrupted(
      f.plan, [](auto& p) { p.at("b").offset = p.at("a").offset; });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/overlap");
}

TEST(VerifyPlan, ConcurrentOverlapBetweenPathFreeBranches) {
  // Two fully independent relu chains in one graph: x0 -> a -> out0 and
  // x1 -> b -> out1. a (live [0, 1]) and b (live [2, 3]) have disjoint
  // per-op intervals, so plan/overlap permits them to share bytes -- but
  // no graph path connects the branches, so the task scheduler is free to
  // run them concurrently and the sharing races. Exactly (and only)
  // plan/concurrent-overlap owns this corruption.
  DataflowGraph g;
  const Shape bj("bj", {2, 3});
  for (const char* name : {"x0", "a", "out0", "x1", "b", "out1"}) {
    g.AddTensor(name, bj);
  }
  g.AddOp({.name = "a0",
           .kind = OpKind::kReLU,
           .inputs = {"x0"},
           .outputs = {"a"}});
  g.AddOp({.name = "a1",
           .kind = OpKind::kReLU,
           .inputs = {"a"},
           .outputs = {"out0"}});
  g.AddOp({.name = "b0",
           .kind = OpKind::kReLU,
           .inputs = {"x1"},
           .outputs = {"b"}});
  g.AddOp({.name = "b1",
           .kind = OpKind::kReLU,
           .inputs = {"b"},
           .outputs = {"out1"}});
  const PlanOptions options;
  const auto clean = PlanMemory(g, options);
  // The planner itself must refuse this reuse (concurrency-safe by
  // construction), so its own output verifies clean.
  const auto ok = Verify(g, clean, options);
  EXPECT_TRUE(ok.ok()) << ok.Summary();
  const auto plan = Corrupted(
      clean, [](auto& p) { p.at("b").offset = p.at("a").offset; });
  ExpectOnlyRule(Verify(g, plan, options), "plan/concurrent-overlap");
}

TEST(VerifyPlan, CrossLayerSavedActivationAliasing) {
  // Whole-stack fixture: layer 1's forward transient "L1.beta" lives
  // entirely inside layer 0's attention-mask store-until-backward window,
  // so aliasing the two clobbers the saved activation before L0's
  // backward reads it. Exactly (and only) plan/cross-layer-liveness owns
  // this corruption.
  const auto g = BuildEncoderStack(ModelDims::Tiny(), {.num_layers = 2});
  const auto options = transformer::StackPlanOptions<Half>(g);
  const auto clean = PlanMemory(g, options);
  const auto ok = Verify(g, clean, options);
  EXPECT_TRUE(ok.ok()) << ok.Summary();
  const auto plan = Corrupted(clean, [](auto& p) {
    p.at("L1.beta").offset = p.at("L0.attn_mask").offset;
  });
  ExpectOnlyRule(Verify(g, plan, options), "plan/cross-layer-liveness");
}

TEST(VerifyPlan, ShrunkLivenessInterval) {
  const auto f = MakeChain();
  const auto plan = Corrupted(f.plan, [](auto& p) {
    p.at("a").last_use = p.at("a").first_use;  // graph implies [0, 1]
  });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/liveness");
}

TEST(VerifyPlan, DroppedPinnedFlag) {
  const auto f = MakeChain();
  const auto plan =
      Corrupted(f.plan, [](auto& p) { p.at("x").pinned = false; });
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/pinned");
}

TEST(VerifyPlan, PlacementPastPeak) {
  const auto f = MakeChain();
  auto placements = f.plan.placements();
  const auto plan = MemoryPlan::FromPlacements(
      std::move(placements), f.plan.PeakBytes() - 8, f.plan.NaiveSumBytes());
  ExpectOnlyRule(Verify(f.graph, plan, f.options), "plan/peak");
}

TEST(VerifyPlan, BrokenGroupTiling) {
  // The encoder's qkv_proj group must be tiled contiguously by qq, kk,
  // vv in order (the zero-copy stacked GEMM reads it as one tensor);
  // shifting kk breaks the tiling and nothing else.
  const auto dims = ModelDims::Tiny();
  const auto g = BuildEncoder(dims, AlgebraicFusion::kQKV, true);
  const auto options = transformer::StackPlanOptions<float>(g);
  const auto plan = Corrupted(PlanMemory(g, options),
                              [](auto& p) { p.at("kk").offset += 64; },
                              /*peak_delta=*/128);
  ExpectOnlyRule(Verify(g, plan, options), "plan/group");
}

TEST(VerifyPlan, FusedKernelInputOutputAliasing) {
  // A bias+relu+dropout chain the fuser launches as one BRD kernel: the
  // kernel reads lin while writing out, so recycling lin's bytes into
  // out is only caught by the fused-atomic rule -- per-op liveness says
  // the intervals are disjoint.
  DataflowGraph g;
  const Shape ubj("ubj", {2, 1, 2});
  const std::vector<DimExt> space = {{'u', 2}, {'b', 1}, {'j', 2}};
  g.AddTensor("lin", ubj);
  g.AddTensor("bias", Shape("u", {2}), /*is_weight=*/true);
  g.AddTensor("y1", ubj);
  g.AddTensor("y2", ubj);
  g.AddTensor("out", ubj);
  g.AddTensor("mask", ubj);
  g.AddOp({.name = "bias 1",
           .kind = OpKind::kBias,
           .inputs = {"lin", "bias"},
           .outputs = {"y1"},
           .independent_dims = space});
  g.AddOp({.name = "relu",
           .kind = OpKind::kReLU,
           .inputs = {"y1"},
           .outputs = {"y2"},
           .independent_dims = space});
  g.AddOp({.name = "drop",
           .kind = OpKind::kDropout,
           .inputs = {"y2"},
           .outputs = {"out", "mask"},
           .independent_dims = space,
           .saved_outputs = {"mask"}});
  PlanOptions options;
  options.fused_spans = {{"bias 1", "relu", "drop"}};
  const auto plan = PlanMemory(g, options);
  const auto clean = Verify(g, plan, options);
  ASSERT_TRUE(clean.ok()) << clean.Summary();

  const auto corrupted = Corrupted(
      plan, [](auto& p) { p.at("out").offset = p.at("y1").offset; });
  ExpectOnlyRule(Verify(g, corrupted, options), "plan/fused-atomic");
}

// ------------------------------------------------- builder/planner pairs

TEST(VerifyClean, EveryBuilderPlanPairVerifies) {
  for (const ModelDims& dims :
       {ModelDims::Tiny(), ModelDims::BertBase()}) {
    EXPECT_TRUE(Verify(BuildMhaForward(dims)).ok());

    const auto mha = BuildMha(dims, /*include_backward=*/true);
    for (const std::size_t elem : {sizeof(float), sizeof(Half)}) {
      PlanOptions options;
      options.default_elem_bytes = elem;
      options.exclude = {"d_out"};
      const auto plan = PlanMemory(mha, options);
      const auto report = Verify(mha, plan, options);
      EXPECT_TRUE(report.ok()) << "mha elem=" << elem << "\n"
                               << report.Summary();
    }

    for (const auto fusion : {AlgebraicFusion::kNone, AlgebraicFusion::kQK,
                              AlgebraicFusion::kQKV}) {
      const auto fwd_only = Verify(BuildEncoder(dims, fusion, false));
      EXPECT_TRUE(fwd_only.ok())
          << "fusion=" << static_cast<int>(fusion) << "\n"
          << fwd_only.Summary();
      // The builder only supports backward (and hence planning) for the
      // fully stacked kQKV form.
      if (fusion != AlgebraicFusion::kQKV) continue;
      const auto enc = BuildEncoder(dims, fusion, /*include_backward=*/true);
      for (const bool half : {false, true}) {
        const auto options =
            half ? transformer::StackPlanOptions<Half>(enc)
                 : transformer::StackPlanOptions<float>(enc);
        const auto plan = PlanMemory(enc, options);
        const auto report = Verify(enc, plan, options);
        EXPECT_TRUE(report.ok())
            << "encoder fusion=" << static_cast<int>(fusion)
            << " half=" << half << "\n"
            << report.Summary();
      }
    }
  }
}

// ------------------------------------------------------------------ fuzz

TEST(VerifyFuzz, EveryPlanPerturbationIsCaught) {
  const auto dims = ModelDims::Tiny();
  const auto g = BuildEncoder(dims, AlgebraicFusion::kQKV, true);
  const auto options = transformer::StackPlanOptions<float>(g);
  const auto plan = PlanMemory(g, options);
  ASSERT_TRUE(Verify(g, plan, options).ok());

  std::vector<std::string> names;
  names.reserve(plan.placements().size());
  for (const auto& [name, p] : plan.placements()) names.push_back(name);

  std::mt19937 rng(20260808);
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  for (int iter = 0; iter < 100; ++iter) {
    auto placements = plan.placements();
    const std::string& victim = names[pick(names.size())];
    TensorPlacement& p = placements.at(victim);
    const int kind = static_cast<int>(pick(4));
    std::string what;
    switch (kind) {
      case 0: {  // unaligned (or tiling-breaking) shift
        const std::size_t delta = 1 + pick(63);
        p.offset += delta;
        what = "shift offset by " + std::to_string(delta);
        break;
      }
      case 1:  // move past the slab
        p.offset += plan.PeakBytes();
        what = "move past peak";
        break;
      case 2:  // shrink the span
        p.bytes -= p.elem_bytes;
        what = "shrink span";
        break;
      default: {  // swap liveness intervals with a differing placement
        std::vector<std::string> partners;
        for (const auto& name : names) {
          const TensorPlacement& q = placements.at(name);
          if (q.first_use != p.first_use || q.last_use != p.last_use) {
            partners.push_back(name);
          }
        }
        ASSERT_FALSE(partners.empty());
        TensorPlacement& q = placements.at(partners[pick(partners.size())]);
        std::swap(p.first_use, q.first_use);
        std::swap(p.last_use, q.last_use);
        what = "swap intervals with '" + q.name + "'";
        break;
      }
    }
    const auto corrupted = MemoryPlan::FromPlacements(
        std::move(placements), plan.PeakBytes(), plan.NaiveSumBytes());
    EXPECT_FALSE(Verify(g, corrupted, options).ok())
        << "iteration " << iter << ": " << what << " on '" << victim
        << "' was not caught";
  }
}

// ----------------------------------------------------- executor bindings

/// x -> relu -> y with both containers external (excluded from the
/// plan), so binding completeness and writability are fully exercised.
struct ReluExecFixture {
  DataflowGraph graph;
  MemoryPlan plan;
  Workspace workspace;
  ReluExecFixture() {
    const Shape bj("bj", {2, 3});
    graph.AddTensor("x", bj);
    graph.AddTensor("y", bj);
    graph.AddOp({.name = "r",
                 .kind = OpKind::kReLU,
                 .inputs = {"x"},
                 .outputs = {"y"}});
    PlanOptions options;
    options.exclude = {"x", "y"};
    plan = PlanMemory(graph, options);
    workspace.Reserve(plan.PeakBytes());
  }
  GraphExecutorT<float> MakeExecutor() {
    return {graph, &plan, &workspace, ExecutorOptions{}};
  }
};

TEST(ExecutorBindings, ReportsUnboundContainers) {
  ReluExecFixture f;
  auto exec = f.MakeExecutor();
  const auto report = exec.VerifyBindings();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 2);  // x and y
  for (const auto& issue : report.issues) {
    EXPECT_EQ(issue.rule_id, "binding/unbound") << ToString(issue);
  }
}

TEST(ExecutorBindings, ReportsReadOnlyOutputByOpName) {
  ReluExecFixture f;
  auto exec = f.MakeExecutor();
  const Shape bj("bj", {2, 3});
  const auto x = TensorF::Random(bj, 5);
  auto y = TensorF(bj);
  exec.BindInput("x", x);
  exec.BindInput("y", y);  // wrong: op "r" writes y
  const auto report = exec.VerifyBindings();
  ASSERT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.issues[0].rule_id, "binding/read-only");
  EXPECT_EQ(report.issues[0].container, "y");
  EXPECT_EQ(report.issues[0].op, "r");
  EXPECT_NE(report.issues[0].message.find("op 'r'"), std::string::npos)
      << report.issues[0].message;
}

TEST(ExecutorBindings, WarnsOnUnusedWritableWithoutFailing) {
  ReluExecFixture f;
  auto exec = f.MakeExecutor();
  const Shape bj("bj", {2, 3});
  auto x = TensorF::Random(bj, 5);
  auto y = TensorF(bj);
  exec.BindOutput("x", x);  // writable, but nothing writes x
  exec.BindOutput("y", y);
  const auto report = exec.VerifyBindings();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_TRUE(report.Has("binding/unused-writable")) << report.Summary();
}

TEST(ExecutorBindings, CleanBindingsRunTheGraph) {
  ReluExecFixture f;
  auto exec = f.MakeExecutor();
  const Shape bj("bj", {2, 3});
  const auto x = TensorF::Random(bj, 5);
  auto y = TensorF(bj);
  exec.BindInput("x", x);
  exec.BindOutput("y", y);
  EXPECT_TRUE(exec.VerifyBindings().ok());
  exec.Forward();
  for (std::int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y.data()[i], std::max(x.data()[i], 0.0f));
  }
}

TEST(ExecutorBindings, PreflightNamesTheMissingContainer) {
  if (!PreflightVerifyEnabled()) {
    GTEST_SKIP() << "pre-flight disabled (Release build, XFLOW_VERIFY unset)";
  }
  ReluExecFixture f;
  auto exec = f.MakeExecutor();
  try {
    exec.Forward();
    FAIL() << "expected the pre-flight to reject unbound containers";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pre-flight failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("binding/unbound"), std::string::npos) << msg;
    EXPECT_NE(msg.find("container 'x'"), std::string::npos) << msg;
  }
}

TEST(ExecutorBindings, RejectsForeignDimsAtBindAndAcceptsAnyOrder) {
  // A bound operand with the right element count but foreign dim names
  // would reach the einsum kernel; the bind itself must reject it, naming
  // the container and both shapes. Memory order is free: kernels address
  // operands by dim name.
  DataflowGraph g;
  g.AddTensor("a", Shape("ij", {2, 3}));
  g.AddTensor("w", Shape("jk", {3, 4}), /*is_weight=*/true);
  g.AddTensor("out", Shape("ik", {2, 4}));
  g.AddOp({.name = "mm",
           .kind = OpKind::kContraction,
           .inputs = {"a", "w"},
           .outputs = {"out"},
           .einsum = "ij,jk->ik"});
  PlanOptions options;
  options.exclude = {"a", "out"};
  const auto plan = PlanMemory(g, options);
  Workspace ws;
  ws.Reserve(plan.PeakBytes());
  GraphExecutorT<float> exec(g, &plan, &ws, ExecutorOptions{});
  const auto w_bad = TensorF::Random(Shape("pq", {3, 4}), 7);
  try {
    exec.BindInput("w", w_bad);  // 12 elements, wrong dim names
    FAIL() << "expected the bind to reject the operand";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'w' is pq[3,4]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("jk[3,4]"), std::string::npos) << msg;
  }

  // Operands bound in another memory order compute the same product.
  const auto a = TensorF::Random(Shape("ij", {2, 3}), 5);
  const auto w = TensorF::Random(Shape("jk", {3, 4}), 7);
  auto out = TensorF(Shape("ik", {2, 4}));
  exec.BindInput("a", a);
  exec.BindInput("w", w);
  exec.BindOutput("out", out);
  exec.Forward();
  const auto a_t = a.Permuted("ji");
  const auto w_t = w.Permuted("kj");
  auto out_t = TensorF(Shape("ki", {4, 2}));
  exec.BindInput("a", a_t);
  exec.BindInput("w", w_t);
  exec.BindOutput("out", out_t);
  exec.Forward();
  EXPECT_LT(MaxAbsDiff(out_t, out), 1e-6);
}

// ------------------------------------------------------------ formatting

TEST(VerifyReporting, IssueAndSummaryFormat) {
  const VerifyIssue err{VerifySeverity::kError, "plan/overlap", "r0", "a",
                        "shares bytes"};
  EXPECT_EQ(ToString(err),
            "[error] plan/overlap (op 'r0') (container 'a'): shares bytes");
  const VerifyIssue warn{VerifySeverity::kWarning, "binding/unused-writable",
                         "", "x", "never written"};
  EXPECT_EQ(ToString(warn),
            "[warning] binding/unused-writable (container 'x'): never "
            "written");

  VerifyReport report;
  report.issues = {err, warn};
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.error_count(), 1);
  EXPECT_TRUE(report.Has("plan/overlap"));
  EXPECT_TRUE(report.Has("binding/unused-writable"));
  EXPECT_FALSE(report.Has("plan/size"));
  EXPECT_NE(report.Summary().find("2 issue(s), 1 error(s)"),
            std::string::npos);

  VerifyReport clean;
  EXPECT_TRUE(clean.ok());
}

TEST(VerifyReporting, OpRefNamesOpIndexAndKind) {
  const auto f = MakeChain();
  const std::string ref = OpRef(f.graph, 0);
  EXPECT_EQ(ref.find("op 'r0' (#0, "), 0u) << ref;
  EXPECT_EQ(OpRef(f.graph, 7), "op #7");
  EXPECT_EQ(OpRef(f.graph, -1), "op #-1");
}

TEST(VerifyReporting, EnvGateParsesCommonSpellings) {
  for (const char* on : {"1", "true", "TRUE", "on", "On", "yes"}) {
    EXPECT_TRUE(VerifyEnvEnabled(on, false)) << on;
  }
  for (const char* off : {"0", "false", "OFF", "off", "no", "No"}) {
    EXPECT_FALSE(VerifyEnvEnabled(off, true)) << off;
  }
  // Unset and unparsable fall back to the build-type default.
  EXPECT_TRUE(VerifyEnvEnabled(nullptr, true));
  EXPECT_FALSE(VerifyEnvEnabled(nullptr, false));
  EXPECT_TRUE(VerifyEnvEnabled("", true));
  EXPECT_FALSE(VerifyEnvEnabled("", false));
  EXPECT_TRUE(VerifyEnvEnabled("garbage", true));
  EXPECT_FALSE(VerifyEnvEnabled("garbage", false));
}

}  // namespace
}  // namespace xflow::graph
