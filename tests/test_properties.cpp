// Property-based sweeps over the system's core invariants, parameterized
// across model shapes and seeds.
#include <gtest/gtest.h>

#include <vector>

#include "baselines/plans.hpp"
#include "fusion/fuser.hpp"
#include "graph/analysis.hpp"
#include "graph/builder.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"

namespace xflow {
namespace {

using graph::AlgebraicFusion;
using graph::BuildEncoder;
using graph::ModelDims;

ModelDims MakeDims(std::int64_t b, std::int64_t j, std::int64_t h,
                   std::int64_t p, std::int64_t u_mult) {
  ModelDims d;
  d.b = b;
  d.j = d.k = j;
  d.h = h;
  d.p = p;
  d.i = h * p;
  d.u = u_mult * d.i;
  return d;
}

// ---------------------------------------------------------------------------
// Graph invariants across shapes.

class GraphShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GraphShapeSweep, StructureIsShapeIndependent) {
  const auto [b, j, h, p] = GetParam();
  const auto d = MakeDims(b, j, h, p, 4);
  const auto g = BuildEncoder(d, AlgebraicFusion::kQKV, true);
  EXPECT_EQ(g.ops().size(), 46u);

  // Flop is always dominated by contractions; the share grows with the
  // embedding size (99.8% at BERT-large, less at toy scale).
  const auto by_class = FlopByClass(g);
  EXPECT_GT(by_class.at(graph::OpClass::kContraction) / TotalFlop(g), 0.90);

  // The fusion result is structurally identical at every size.
  const auto fused = fusion::FuseMaximally(g);
  EXPECT_EQ(fused.kernels.size(), 32u);
  EXPECT_GT(fused.DataMovementReduction(g), 0.05);
  EXPECT_LT(fused.DataMovementReduction(g), 0.40);
}

TEST_P(GraphShapeSweep, ForwardBackwardFlopRatioIsTwo) {
  const auto [b, j, h, p] = GetParam();
  const auto d = MakeDims(b, j, h, p, 4);
  const auto g = BuildEncoder(d, AlgebraicFusion::kQKV, true);
  double fwd = 0, bwd = 0;
  bool in_bwd = false;
  for (const auto& op : g.ops()) {
    if (op.name == "layernorm 2 dW") in_bwd = true;
    if (op.cls() == graph::OpClass::kContraction) {
      (in_bwd ? bwd : fwd) += op.flop;
    }
  }
  EXPECT_NEAR(bwd / fwd, 2.0, 1e-9);  // dX + dW per forward GEMM
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphShapeSweep,
    ::testing::Values(std::tuple{2, 16, 2, 8}, std::tuple{4, 64, 4, 16},
                      std::tuple{8, 512, 16, 64},   // BERT-large
                      std::tuple{96, 128, 16, 64},  // second config
                      std::tuple{1, 32, 8, 32}));

// ---------------------------------------------------------------------------
// Device-model monotonicity properties.

class ModelMonotonicity : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ModelMonotonicity, MoreWorkNeverRunsMuchFaster) {
  // Doubling M doubles flop but can also improve utilization (wave
  // quantization, per-shape algorithm behavior), so the property is
  // "never much faster", not strict monotonicity.
  const sim::GpuModel model(sim::DeviceSpec::V100());
  const std::int64_t n = GetParam();
  GemmExtents small{.m = n, .n = 1024, .k = 1024, .batch = 1};
  GemmExtents big{.m = 2 * n, .n = 1024, .k = 1024, .batch = 1};
  auto best = [&](const GemmExtents& e) {
    double t = 1e30;
    for (int a = 0; a < sim::kNumGemmAlgorithms; ++a) {
      t = std::min(t, model.Contraction(e, {.algorithm = a}).time_us);
    }
    return t;
  };
  EXPECT_LE(best(small), best(big) * 1.10);
}

TEST_P(ModelMonotonicity, BandwidthFractionInverselyScalesTime) {
  const sim::GpuModel model(sim::DeviceSpec::V100());
  const double bytes = static_cast<double>(GetParam()) * 1e5;
  double prev = 1e30;
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const auto t = model.MemoryBoundKernel(
        bytes, bytes, 0, {.bandwidth_frac = frac});
    EXPECT_LT(t.time_us, prev);
    prev = t.time_us;
  }
}

TEST_P(ModelMonotonicity, MueAlwaysInRange) {
  const sim::GpuModel model(sim::DeviceSpec::V100());
  const std::int64_t n = GetParam();
  GemmExtents e{.m = n, .n = n, .k = 64, .batch = 8};
  for (int algo = 0; algo < sim::kNumGemmAlgorithms; ++algo) {
    const auto t = model.Contraction(e, {.algorithm = algo});
    EXPECT_GE(t.mue, 0.0);
    EXPECT_LE(t.mue, 100.0);
    EXPECT_GE(t.pct_peak, 0.0);
    EXPECT_LE(t.pct_peak, 100.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ModelMonotonicity,
                         ::testing::Values(128, 256, 512, 1024, 4096));

// ---------------------------------------------------------------------------
// Encoder numerics across shapes and seeds: fused == unfused everywhere.
// The fused side is a one-layer stack on the planned executor, which
// launches the paper's fused kernels; the unfused side is the owning
// layer's per-operator pipeline.

class EncoderShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EncoderShapeSweep, FusedEqualsUnfusedEverywhere) {
  const auto [h, p, seed] = GetParam();
  transformer::EncoderConfig cfg;
  cfg.dims = MakeDims(2, 8, h, p, 2);
  cfg.dropout_prob = 0.15f;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.use_fused_kernels = true;
  // Layer 0 of the stack takes cfg.seed and EncoderParams::Init(dims,
  // 100 + seed).
  const transformer::EncoderStack stack(cfg, 1, 100 + seed);
  auto arena = transformer::MakeStackArena<Half>(cfg, {.num_layers = 1});

  auto x = TensorH::Random(
      Shape("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j}), 200 + seed);
  std::vector<transformer::EncoderActivations> acts;
  const TensorH& y = stack.Forward(x, acts);
  EXPECT_EQ(MaxAbsDiff(stack.Forward(x, arena), y), 0.0);

  auto d_y = TensorH::Random(y.shape(), 300 + seed);
  std::vector<transformer::EncoderGradients> g_u, g_f;
  stack.Backward(d_y, acts, g_u);
  EXPECT_EQ(MaxAbsDiff(stack.Backward(d_y, arena, g_f), g_u[0].d_x), 0.0);
  EXPECT_EQ(MaxAbsDiff(g_f[0].params.w_qkv, g_u[0].params.w_qkv), 0.0);
  EXPECT_EQ(MaxAbsDiff(g_f[0].params.b_qkv, g_u[0].params.b_qkv), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, EncoderShapeSweep,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(4, 8),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------------
// Baseline ordering holds across model scales (not just BERT-large).

class BaselineScaleSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BaselineScaleSweep, OursNeverLosesToPyTorch) {
  const auto [b, j] = GetParam();
  const auto d = MakeDims(b, j, 16, 64, 4);
  const sim::GpuModel model(sim::DeviceSpec::V100());
  const auto ours =
      baselines::PlanEncoder(baselines::Framework::kOurs, model, d);
  const auto pt =
      baselines::PlanEncoder(baselines::Framework::kPyTorch, model, d);
  EXPECT_LT(ours.TotalUs(), pt.TotalUs());
  EXPECT_LT(ours.TotalBytesMoved(), pt.TotalBytesMoved());
}

INSTANTIATE_TEST_SUITE_P(Scales, BaselineScaleSweep,
                         ::testing::Values(std::tuple{2, 128},
                                           std::tuple{8, 512},
                                           std::tuple{16, 256},
                                           std::tuple{96, 128},
                                           std::tuple{32, 64}));

}  // namespace
}  // namespace xflow
