// Graph-executor introspection over a planned arena: the schedule's
// forward/backward boundary, that the fused schedule is exactly the
// plan's fused spans, and the loud failures for spans it cannot launch
// and externals left unbound or mis-shaped. Bitwise parity with the
// owning reference lives in test_whole_stack.cpp.
#include "graph/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "graph/builder.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"

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

/// y, d_x and every weight gradient of one forward+backward step of
/// `stack` over `arena`, copied out of the slab.
std::vector<TensorH> StepOutputs(const EncoderStack& stack,
                                 StackArenaT<Half>& arena, const TensorH& x,
                                 const TensorH& d_y) {
  std::vector<TensorH> out;
  const auto keep = [&](const TensorH& t) {
    TensorH copy(t.shape());
    CopyValuesInto(t, copy);
    out.push_back(std::move(copy));
  };
  keep(stack.Forward(x, arena));
  std::vector<EncoderGradients> grads;
  keep(stack.Backward(d_y, arena, grads));
  for (auto& layer : grads) {
    for (auto& [name, t] : layer.params.Named()) keep(*t);
  }
  return out;
}

TEST(GraphExecutor, LaunchesExactlyThePlansFusedSpans) {
  // A Tiny two-layer stack planned three ways -- with every span, with
  // one span dropped, with none -- all run with fused kernels on. The
  // dropped span's ops run one by one, no spans means one step per op,
  // and every schedule is bitwise equal to the full one.
  EncoderConfig cfg;
  cfg.dims = ModelDims::Tiny();
  cfg.dropout_prob = 0.1f;
  cfg.use_fused_kernels = true;
  const EncoderStack stack(cfg, 2, 21);
  const Shape ibj("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j});
  const auto x = TensorH::Random(ibj, 2);
  const auto d_y = TensorH::Random(ibj, 3);

  auto g = graph::BuildEncoderStack(cfg.dims, {.num_layers = 2});
  const int num_ops = static_cast<int>(g.ops().size());
  const auto full = StackPlanOptions<Half>(g);
  ASSERT_FALSE(full.fused_spans.empty());
  auto dropped = full;
  const int span_size = static_cast<int>(dropped.fused_spans.front().size());
  dropped.fused_spans.erase(dropped.fused_spans.begin());
  auto none = full;
  none.fused_spans.clear();

  StackArenaT<Half> full_arena(g, full);
  const int full_steps = stack.Executor(full_arena).num_steps();
  EXPECT_LT(full_steps, num_ops);
  const auto want = StepOutputs(stack, full_arena, x, d_y);

  StackArenaT<Half> dropped_arena(g, dropped);
  EXPECT_EQ(stack.Executor(dropped_arena).num_steps(),
            full_steps + span_size - 1);
  const auto got_dropped = StepOutputs(stack, dropped_arena, x, d_y);

  StackArenaT<Half> none_arena(std::move(g), none);
  EXPECT_EQ(stack.Executor(none_arena).num_steps(), num_ops);
  const auto got_none = StepOutputs(stack, none_arena, x, d_y);

  ASSERT_EQ(got_dropped.size(), want.size());
  ASSERT_EQ(got_none.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_EQ(MaxAbsDiff(got_dropped[t], want[t]), 0.0) << "output " << t;
    EXPECT_EQ(MaxAbsDiff(got_none[t], want[t]), 0.0) << "output " << t;
  }
}

/// bias -> relu -> dropout over ubj, with the dropout reading `drop_in`
/// ("y2" chains it to the relu; "y1" skips the relu).
graph::DataflowGraph BiasReluDropout(const std::string& drop_in) {
  graph::DataflowGraph g;
  const Shape ubj("ubj", {2, 1, 2});
  const std::vector<DimExt> space = {{'u', 2}, {'b', 1}, {'j', 2}};
  for (const char* name : {"lin", "y1", "y2", "out", "mask"}) {
    g.AddTensor(name, ubj);
  }
  g.AddTensor("bias", Shape("u", {2}), /*is_weight=*/true);
  g.AddOp({.name = "bias 1",
           .kind = graph::OpKind::kBias,
           .inputs = {"lin", "bias"},
           .outputs = {"y1"},
           .independent_dims = space});
  g.AddOp({.name = "relu",
           .kind = graph::OpKind::kReLU,
           .inputs = {"y1"},
           .outputs = {"y2"},
           .independent_dims = space});
  g.AddOp({.name = "drop",
           .kind = graph::OpKind::kDropout,
           .inputs = {drop_in},
           .outputs = {"out", "mask"},
           .independent_dims = space,
           .saved_outputs = {"mask"}});
  return g;
}

TEST(GraphExecutor, RejectsDeclaredSpansItCannotLaunchByName) {
  struct Case {
    const char* what;
    const char* drop_in;
    std::vector<std::string> span;
  };
  const std::vector<Case> cases = {
      {"not consecutive", "y2", {"bias 1", "drop"}},
      {"other op kinds", "y2", {"relu", "drop"}},
      {"BRD kinds, another operand chain", "y1", {"bias 1", "relu", "drop"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto g = BiasReluDropout(c.drop_in);
    graph::PlanOptions options;
    options.fused_spans = {c.span};
    const auto plan = graph::PlanMemory(g, options);
    Workspace ws(plan.PeakBytes());
    graph::ExecutorOptions opts;
    opts.dropout_seeds = {1};
    try {
      graph::GraphExecutorT<float> exec(g, &plan, &ws, opts);
      ADD_FAILURE() << "span was accepted";
    } catch (const InvalidArgument& e) {
      const std::string name = "'" + Join(c.span, "' + '") + "'";
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    // Unfused execution runs every op alone and ignores the spans.
    opts.use_fused_kernels = false;
    EXPECT_EQ(graph::GraphExecutorT<float>(g, &plan, &ws, opts).num_steps(),
              3);
  }
  // The same span over the chained graph is one BRD launch.
  const auto g = BiasReluDropout("y2");
  graph::PlanOptions options;
  options.fused_spans = {{"bias 1", "relu", "drop"}};
  const auto plan = graph::PlanMemory(g, options);
  Workspace ws(plan.PeakBytes());
  graph::ExecutorOptions opts;
  opts.dropout_seeds = {1};
  EXPECT_EQ(graph::GraphExecutorT<float>(g, &plan, &ws, opts).num_steps(), 1);
}

TEST(GraphExecutor, RejectsExternalsShapedUnlikeTheirContainer) {
  // Same element count, another shape: a d_y with i and j swapped would
  // let the fused BLNRD kernel read past it, and a bias over the wrong
  // dim would silently shift the output. Both fail at bind, by name.
  EncoderConfig cfg;
  cfg.dims = ModelDims::Tiny();
  const auto& d = cfg.dims;
  const EncoderStack stack(cfg, 2, 21);
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = 2});
  const auto x = TensorH::Random(Shape("ibj", {d.i, d.b, d.j}), 2);
  stack.Forward(x, arena);
  const auto d_y = TensorH::Random(Shape("ibj", {d.j, d.b, d.i}), 3);
  std::vector<EncoderGradients> grads;
  try {
    stack.Backward(d_y, arena, grads);
    ADD_FAILURE() << "a d_y shaped ibj[6,2,8] was accepted";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'d_y' is ibj[6,2,8]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ibj[8,2,6]"), std::string::npos) << msg;
  }
  const auto b1 = TensorH::Random(Shape("i", {d.u}), 4);
  try {
    stack.Executor(arena).BindInput("L0.b1", b1);
    ADD_FAILURE() << "an i[12] bias was bound to u[12]";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'L0.b1' is i[12]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("u[12]"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace xflow::transformer
