#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "common/units.hpp"

namespace xflow::graph {
namespace {

TEST(DataflowGraph, RejectsUndefinedInputs) {
  DataflowGraph g;
  g.AddTensor("a", Shape("x", {4}));
  OpNode op;
  op.name = "bad";
  op.inputs = {"missing"};
  op.outputs = {"a"};
  EXPECT_THROW(g.AddOp(op), InvalidArgument);
}

TEST(DataflowGraph, RejectsDoubleProducer) {
  DataflowGraph g;
  g.AddTensor("a", Shape("x", {4}));
  g.AddTensor("b", Shape("x", {4}));
  OpNode op1{.name = "p1", .inputs = {"a"}, .outputs = {"b"}};
  OpNode op2{.name = "p2", .inputs = {"a"}, .outputs = {"b"}};
  g.AddOp(op1);
  EXPECT_THROW(g.AddOp(op2), InvalidArgument);
}

TEST(DataflowGraph, ProducerConsumerLookup) {
  DataflowGraph g;
  g.AddTensor("a", Shape("x", {4}));
  g.AddTensor("b", Shape("x", {4}));
  g.AddTensor("c", Shape("x", {4}));
  g.AddOp({.name = "f", .inputs = {"a"}, .outputs = {"b"}});
  g.AddOp({.name = "g", .inputs = {"b"}, .outputs = {"c"}});
  EXPECT_EQ(g.ProducerOf("a"), -1);
  EXPECT_EQ(g.ProducerOf("b"), 0);
  EXPECT_EQ(g.ProducerOf("c"), 1);
  EXPECT_EQ(g.ConsumersOf("b"), std::vector<int>{1});
  EXPECT_TRUE(g.ConsumersOf("c").empty());
}

// The lookups are indexed as ops are added; these pin the semantics of
// the linear scans they replaced.

TEST(DataflowGraph, ConsumersListEachReaderOnceInOpOrder) {
  DataflowGraph g;
  const Shape x("x", {4});
  for (const char* name : {"a", "b", "c", "d"}) g.AddTensor(name, x);
  g.AddOp({.name = "square", .inputs = {"a", "a"}, .outputs = {"b"}});
  g.AddOp({.name = "mix", .inputs = {"b", "a", "b"}, .outputs = {"c"}});
  g.AddOp({.name = "sum", .inputs = {"c", "a"}, .outputs = {"d"}});
  EXPECT_EQ(g.ConsumersOf("a"), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(g.ConsumersOf("b"), std::vector<int>{1});
  EXPECT_EQ(g.ConsumersOf("c"), std::vector<int>{2});
  EXPECT_TRUE(g.ConsumersOf("d").empty());
  EXPECT_TRUE(g.ConsumersOf("no such tensor").empty());
}

TEST(DataflowGraph, OpIndexFindsTheFirstOfARepeatedName) {
  DataflowGraph g;
  const Shape x("x", {4});
  for (const char* name : {"a", "b", "c"}) g.AddTensor(name, x);
  g.AddOpUnchecked({.name = "twin", .inputs = {"a"}, .outputs = {"b"}});
  g.AddOpUnchecked({.name = "twin", .inputs = {"b"}, .outputs = {"c"}});
  EXPECT_EQ(g.OpIndex("twin"), 0);
  EXPECT_EQ(&g.op("twin"), &g.ops()[0]);
  EXPECT_EQ(g.OpIndex("missing"), -1);
  EXPECT_THROW((void)g.op("missing"), InvalidArgument);
  // The checked path refuses the repeat outright.
  DataflowGraph h;
  for (const char* name : {"a", "b", "c"}) h.AddTensor(name, x);
  h.AddOp({.name = "twin", .inputs = {"a"}, .outputs = {"b"}});
  EXPECT_THROW(h.AddOp({.name = "twin", .inputs = {"b"}, .outputs = {"c"}}),
               InvalidArgument);
}

TEST(DataflowGraph, IndexedLookupsMatchAScanOfTheStack) {
  // Every container and op of a two-layer training graph (embedding, loss
  // and a recomputed layer included), against a scan of ops().
  StackGraphOptions options;
  options.num_layers = 2;
  options.vocab = 16;
  options.include_loss = true;
  options.recompute_layers = {0};
  const auto g = BuildEncoderStack(ModelDims::Tiny(), options);
  const auto& ops = g.ops();
  for (const auto& [name, node] : g.tensors()) {
    std::vector<int> scan;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& in = ops[i].inputs;
      if (std::find(in.begin(), in.end(), name) != in.end()) {
        scan.push_back(static_cast<int>(i));
      }
    }
    EXPECT_EQ(g.ConsumersOf(name), scan) << name;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(g.OpIndex(ops[i].name), static_cast<int>(i)) << ops[i].name;
  }
}

// ---------------------------------------------------------------------------
// Fig. 1: MHA forward dataflow annotations.

class MhaGraphTest : public ::testing::Test {
 protected:
  DataflowGraph g_ = BuildMhaForward(ModelDims::BertLarge());
};

TEST_F(MhaGraphTest, ProjectionFlopMatchesPaper) {
  // Fig. 1 annotates each input projection with 8G flop at ~910 flop/IO.
  for (const char* name : {"Q", "K", "V"}) {
    const auto cost = CostOf(g_, g_.op(name));
    EXPECT_NEAR(cost.flop / 1e9, 8.6, 0.1) << name;
    EXPECT_NEAR(cost.FlopPerIo(), 910, 15) << name;
    EXPECT_EQ(ClassifyBoundedness(cost), Boundedness::kFlopDominated);
  }
}

TEST_F(MhaGraphTest, AttentionScoreFlopPerIoMatchesPaper) {
  // Fig. 1: QKT and gamma are 4G flop at ~102 flop/IO.
  for (const char* name : {"QKT", "gamma"}) {
    const auto cost = CostOf(g_, g_.op(name));
    EXPECT_NEAR(cost.flop / 1e9, 4.3, 0.1) << name;
    EXPECT_NEAR(cost.FlopPerIo(), 102, 5) << name;
  }
}

TEST_F(MhaGraphTest, SoftmaxIsIoDominatedAtPaperRatio) {
  // Fig. 1: softmax ~160-200M flop at ~2.5 flop/IO => memory bound.
  const auto cost = CostOf(g_, g_.op("scaled softmax"));
  EXPECT_NEAR(cost.flop / 1e6, 201, 5);
  EXPECT_NEAR(cost.FlopPerIo(), 1.5, 1.2);  // mask outputs included
  EXPECT_EQ(ClassifyBoundedness(cost), Boundedness::kIoDominated);
}

TEST_F(MhaGraphTest, BiasOpsAreIoDominated) {
  for (const char* name : {"bias Q", "bias K", "bias V", "bias out"}) {
    const auto cost = CostOf(g_, g_.op(name));
    EXPECT_LT(cost.FlopPerIo(), 1.0) << name;
    EXPECT_EQ(ClassifyBoundedness(cost), Boundedness::kIoDominated) << name;
  }
}

TEST_F(MhaGraphTest, DotExportMentionsEveryOp) {
  const std::string dot = ToDot(g_);
  for (const auto& op : g_.ops()) {
    EXPECT_NE(dot.find("op:" + op.name), std::string::npos) << op.name;
  }
}

// ---------------------------------------------------------------------------
// Table III / Fig. 2: encoder layer, forward + backward.

class EncoderGraphTest : public ::testing::Test {
 protected:
  DataflowGraph g_ =
      BuildEncoder(ModelDims::BertLarge(), AlgebraicFusion::kQKV, true);
};

TEST_F(EncoderGraphTest, HasAllTableIiiOperators) {
  EXPECT_EQ(g_.ops().size(), 19u + 27u);  // 19 forward + 27 backward rows
}

TEST_F(EncoderGraphTest, QkvProjectionMatchesTableIii) {
  const auto cost = CostOf(g_, g_.op("Q,K,V"));
  EXPECT_NEAR(ToGflop(cost.flop), 24.0, 0.01);          // paper: 24
  EXPECT_NEAR(ToMega(cost.input_elems), 7.3, 0.1);      // paper: 7.3
  EXPECT_NEAR(ToMega(cost.output_elems), 12.5, 0.2);    // paper: 12.5
}

TEST_F(EncoderGraphTest, LinearLayersMatchTableIii) {
  const auto lin1 = CostOf(g_, g_.op("linear 1"));
  EXPECT_NEAR(ToGflop(lin1.flop), 32.0, 0.01);
  EXPECT_NEAR(ToMega(lin1.input_elems), 8.3, 0.2);
  EXPECT_NEAR(ToMega(lin1.output_elems), 16.7, 0.2);
  const auto lin2 = CostOf(g_, g_.op("linear 2"));
  EXPECT_NEAR(ToGflop(lin2.flop), 32.0, 0.01);
  EXPECT_NEAR(ToMega(lin2.input_elems), 20.9, 0.2);
  EXPECT_NEAR(ToMega(lin2.output_elems), 4.1, 0.2);
}

TEST_F(EncoderGraphTest, SoftmaxVolumesMatchTableIii) {
  const auto sm = CostOf(g_, g_.op("scaled softmax"));
  EXPECT_NEAR(ToGflop(sm.flop), 0.188, 0.005);        // paper: 0.188
  EXPECT_NEAR(ToMega(sm.input_elems), 33.5, 0.2);     // paper: 33.5
  EXPECT_NEAR(ToMega(sm.output_elems), 100.6, 0.3);   // paper: 100.6
}

TEST_F(EncoderGraphTest, BackwardProjectionVolumesMatchTableIii) {
  const auto dx = CostOf(g_, g_.op("Q,K,V dX"));
  EXPECT_NEAR(ToGflop(dx.flop), 24.0, 0.1);
  EXPECT_NEAR(ToMega(dx.input_elems), 15.7, 0.2);  // paper: 15.7
  EXPECT_NEAR(ToMega(dx.output_elems), 4.1, 0.2);  // paper: 4.1
}

TEST_F(EncoderGraphTest, ClassTotalsMatchTableIii) {
  const auto by_class = FlopByClass(g_);
  // Paper totals: 312 / 0.535 / 0.098 Gflop (2^30 convention).
  EXPECT_NEAR(ToGflop(by_class.at(OpClass::kContraction)), 312.0, 0.5);
  EXPECT_NEAR(ToGflop(by_class.at(OpClass::kStatNorm)), 0.535, 0.02);
  EXPECT_NEAR(ToGflop(by_class.at(OpClass::kElementwise)), 0.098, 0.01);
}

TEST_F(EncoderGraphTest, ClassFlopSharesMatchTableI) {
  const auto by_class = FlopByClass(g_);
  const double total = TotalFlop(g_);
  EXPECT_NEAR(by_class.at(OpClass::kContraction) / total, 0.9980, 0.0005);
  EXPECT_NEAR(by_class.at(OpClass::kStatNorm) / total, 0.0017, 0.0005);
  EXPECT_NEAR(by_class.at(OpClass::kElementwise) / total, 0.0003, 0.0002);
}

TEST_F(EncoderGraphTest, BackwardMirrorsForwardContractelyFlop) {
  // Forward contractions: 24+4+4+8+32+32 = 104 G; backward: 208 G.
  double fwd = 0, bwd = 0;
  bool in_bwd = false;
  for (const auto& op : g_.ops()) {
    if (op.name == "layernorm 2 dW") in_bwd = true;
    if (op.cls() == OpClass::kContraction) (in_bwd ? bwd : fwd) += op.flop;
  }
  EXPECT_NEAR(ToGflop(fwd), 104.0, 0.2);
  EXPECT_NEAR(ToGflop(bwd), 208.0, 0.4);
}

TEST_F(EncoderGraphTest, EveryActivationGradientHasMatchingShape) {
  // Property: d_<t> always has the same element count as <t>.
  for (const auto& [name, t] : g_.tensors()) {
    if (name.rfind("d_", 0) != 0) continue;
    const std::string primal = name.substr(2);
    if (!g_.HasTensor(primal)) continue;
    EXPECT_EQ(t.shape.num_elements(),
              g_.tensor(primal).shape.num_elements())
        << name;
  }
}

TEST_F(EncoderGraphTest, AlgebraicFusionVariantsPreserveFlop) {
  // Stacking Q/K/V GEMMs must not change total forward flop.
  const auto qkv =
      BuildEncoder(ModelDims::BertLarge(), AlgebraicFusion::kQKV, false);
  const auto qk =
      BuildEncoder(ModelDims::BertLarge(), AlgebraicFusion::kQK, false);
  const auto none =
      BuildEncoder(ModelDims::BertLarge(), AlgebraicFusion::kNone, false);
  EXPECT_NEAR(TotalFlop(qkv), TotalFlop(qk), 1.0);
  EXPECT_NEAR(TotalFlop(qkv), TotalFlop(none), 1.0);
  // But the number of projection GEMM launches differs: 1 vs 2 vs 3.
  auto contraction_count = [](const DataflowGraph& g) {
    int n = 0;
    for (const auto& op : g.ops()) n += op.cls() == OpClass::kContraction;
    return n;
  };
  EXPECT_EQ(contraction_count(none) - contraction_count(qkv), 2);
  EXPECT_EQ(contraction_count(qk) - contraction_count(qkv), 1);
}

TEST_F(EncoderGraphTest, TinyDimsBuildConsistently) {
  const auto g = BuildEncoder(ModelDims::Tiny(), AlgebraicFusion::kQKV, true);
  EXPECT_EQ(g.ops().size(), g_.ops().size());
  for (const auto& op : g.ops()) {
    EXPECT_GT(g.InputElements(op), 0) << op.name;
    EXPECT_GT(g.OutputElements(op), 0) << op.name;
  }
}

}  // namespace
}  // namespace xflow::graph
