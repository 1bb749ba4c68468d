// Graph-executor introspection over a planned arena: the schedule's
// forward/backward boundary, what fusion does to it, and the loud
// failure when externals are left unbound. Bitwise parity with the
// owning reference lives in test_whole_stack.cpp.
#include "graph/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "graph/builder.hpp"
#include "transformer/arena.hpp"

namespace xflow::transformer {
namespace {

using graph::ModelDims;

/// A single-layer encoder graph (forward + backward) planned into one
/// StackArenaT, plus the executor options the tests share.
struct LayerFixture {
  static StackArenaT<Half> Arena() {
    auto g = graph::BuildEncoder(ModelDims::Tiny(),
                                 graph::AlgebraicFusion::kQKV,
                                 /*include_backward=*/true);
    const auto options = StackPlanOptions<Half>(g);
    return StackArenaT<Half>(std::move(g), options);
  }

  LayerFixture() {
    opts.dropout_prob = 0.1f;
    opts.dropout_seeds = {1, 2, 3, 4};
  }

  StackArenaT<Half> arena = Arena();
  graph::ExecutorOptions opts;
};

TEST(GraphExecutor, ScheduleAndBoundary) {
  LayerFixture f;
  const graph::DataflowGraph& g = f.arena.graph();
  f.opts.use_fused_kernels = true;
  graph::GraphExecutorT<Half> fused_exec(g, &f.arena.plan(),
                                         &f.arena.workspace(), f.opts);
  f.opts.use_fused_kernels = false;
  graph::GraphExecutorT<Half> unfused_exec(g, &f.arena.plan(),
                                           &f.arena.workspace(), f.opts);
  // The backward boundary is the first backward-kind op ("layernorm 2
  // dW"), identical in both schedules.
  int expected = -1;
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    if (g.ops()[i].name == "layernorm 2 dW") expected = static_cast<int>(i);
  }
  EXPECT_EQ(fused_exec.backward_begin(), expected);
  EXPECT_EQ(unfused_exec.backward_begin(), expected);
  // Fusion shrinks the schedule: the unfused schedule launches one kernel
  // per op, the fused one merges the paper's multi-op groups.
  EXPECT_EQ(unfused_exec.num_steps(), static_cast<int>(g.ops().size()));
  EXPECT_LT(fused_exec.num_steps(), unfused_exec.num_steps());
}

TEST(GraphExecutor, RequiresExternalBindings) {
  // Running without binding the graph inputs/weights must fail loudly,
  // naming the container, instead of reading unbound memory.
  LayerFixture f;
  graph::GraphExecutorT<Half> exec(f.arena.graph(), &f.arena.plan(),
                                   &f.arena.workspace(), f.opts);
  EXPECT_THROW(exec.Forward(), InvalidArgument);
}

TEST(GraphExecutor, RejectsDropoutProbabilityOutsideTheUnitInterval) {
  LayerFixture f;
  for (const float p : {-0.5f, 1.5f, std::nanf("")}) {
    f.opts.dropout_prob = p;
    try {
      graph::GraphExecutorT<Half> exec(f.arena.graph(), &f.arena.plan(),
                                       &f.arena.workspace(), f.opts);
      ADD_FAILURE() << "dropout probability " << p << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string value =
          std::isnan(p) ? "nan" : (p < 0 ? "-0.5" : "1.5");
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace xflow::transformer
