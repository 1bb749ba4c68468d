#include "transformer/training.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "transformer/encoder.hpp"

namespace xflow::transformer {
namespace {

TEST(Adam, StepIsBitwiseDeterministicAcrossThreadCounts) {
  // The update runs chunked on the pool; each element depends only on
  // itself, so the thread count must never change the result.
  const Shape shape("x", {100001});  // not a multiple of the chunk size
  auto grad = TensorH::Random(shape, 3);
  auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    auto master = TensorF::Random(shape, 5);
    TensorH working = master.Cast<Half>();
    MixedPrecisionAdam opt({.lr = 1e-2f});
    for (int step = 0; step < 3; ++step) {
      opt.Step("w", master, working, grad);
    }
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
    return master;
  };
  auto serial = run(1);
  auto wide = run(8);
  EXPECT_EQ(MaxAbsDiff(serial, wide), 0.0);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise.
  TensorF master(Shape("x", {4}));
  TensorH working = master.Cast<Half>();
  MixedPrecisionAdam opt({.lr = 0.1f});
  for (int step = 0; step < 300; ++step) {
    TensorH grad(Shape("x", {4}));
    for (std::int64_t i = 0; i < 4; ++i) {
      grad.data()[i] = Half(2.0f * (master.data()[i] - 3.0f));
    }
    opt.Step("w", master, working, grad);
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(master.data()[i], 3.0f, 0.05f);
    EXPECT_NEAR(float(working.data()[i]), 3.0f, 0.05f);
  }
  EXPECT_EQ(opt.steps("w"), 300);
  EXPECT_EQ(opt.steps("unknown"), 0);
}

TEST(Adam, WorkingCopyTracksMasterThroughFp16) {
  TensorF master(Shape("x", {1}));
  master.data()[0] = 1.0f;
  TensorH working = master.Cast<Half>();
  MixedPrecisionAdam opt({.lr = 1e-4f});
  TensorH grad(Shape("x", {1}));
  grad.data()[0] = Half(1.0f);
  opt.Step("w", master, working, grad);
  // Master moved by ~lr; fp16 copy is the rounded master.
  EXPECT_LT(master.data()[0], 1.0f);
  EXPECT_EQ(float(working.data()[0]), float(Half(master.data()[0])));
}

TEST(Adam, RejectsAGradientInAnotherDimOrder) {
  // Step pairs master, working and gradient elements by flat index, so a
  // ji gradient for an ij weight would update the wrong master elements:
  // it must fail, naming the parameter and the shapes.
  const Shape ij("ij", {3, 4});
  auto master = TensorF::Random(ij, 5);
  TensorH working = master.Cast<Half>();
  MixedPrecisionAdam opt;
  const auto permuted = TensorH::Random(Shape("ji", {4, 3}), 7);
  try {
    opt.Step("w", master, working, permuted);
    ADD_FAILURE() << "a ji[4,3] gradient was applied to an ij[3,4] weight";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'w'"), std::string::npos) << what;
    EXPECT_NE(what.find("ij[3,4]"), std::string::npos) << what;
    EXPECT_NE(what.find("ji[4,3]"), std::string::npos) << what;
  }
  TensorH relabeled = working;  // same count and order, other dim names
  relabeled.EnsureShape(Shape("ik", {3, 4}));
  EXPECT_THROW(opt.Step("w", master, relabeled, TensorH(ij)),
               InvalidArgument);
  EXPECT_EQ(opt.steps("w"), 0);
}

TEST(MseLoss, ZeroAtTargetAndGradientPointsUp) {
  auto y = TensorH::Random(Shape("ib", {4, 4}), 1);
  TensorH d_y(y.shape());
  EXPECT_DOUBLE_EQ(MseLoss(y, y, d_y), 0.0);
  for (std::int64_t i = 0; i < d_y.size(); ++i) {
    EXPECT_EQ(float(d_y.data()[i]), 0.0f);
  }

  auto target = TensorH::Full(y.shape(), 0.0f);
  const double loss = MseLoss(y, target, d_y);
  EXPECT_GT(loss, 0.0);
  for (std::int64_t i = 0; i < d_y.size(); ++i) {
    // d/dy of (y-0)^2/N has the sign of y.
    EXPECT_GE(float(d_y.data()[i]) * float(y.data()[i]), 0.0f);
  }
}

TEST(MseLoss, RejectsTensorsNotShapedLikeY) {
  // Elements pair by memory position, so a target in another dim order
  // or with swapped extents would be compared with the wrong y values.
  // Both must fail, naming both shapes; so must a mis-shaped d_y.
  const auto y = TensorH::Random(Shape("ibj", {8, 2, 6}), 1);
  TensorH d_y(y.shape());
  const auto permuted = y.Permuted("bji");
  const auto swapped = TensorH::Random(Shape("ibj", {6, 2, 8}), 2);
  auto message = [&](const TensorH& target, TensorH& grad) -> std::string {
    try {
      MseLoss(y, target, grad);
    } catch (const InvalidArgument& e) {
      return e.what();
    }
    return "";
  };
  const std::string perm = message(permuted, d_y);
  EXPECT_NE(perm.find("target bji[2,6,8]"), std::string::npos) << perm;
  EXPECT_NE(perm.find("ibj[8,2,6]"), std::string::npos) << perm;
  const std::string swap = message(swapped, d_y);
  EXPECT_NE(swap.find("target ibj[6,2,8]"), std::string::npos) << swap;
  EXPECT_NE(swap.find("ibj[8,2,6]"), std::string::npos) << swap;
  TensorH wrong_d_y(swapped.shape());
  const std::string grad = message(y, wrong_d_y);
  EXPECT_NE(grad.find("d_y ibj[6,2,8]"), std::string::npos) << grad;
}

TEST(Training, EncoderLayerLearnsIdentityTarget) {
  // End-to-end: train the tiny encoder to reproduce a fixed target; loss
  // must drop substantially. Exercises forward, backward and the optimizer.
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  cfg.dropout_prob = 0.0f;

  auto params = EncoderParams::Init(cfg.dims, 5);
  EncoderLayer layer(cfg, params);
  auto x = TensorH::Random(Shape("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j}),
                           9);
  auto target =
      TensorH::Random(Shape("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j}), 11);

  MixedPrecisionAdam opt({.lr = 5e-3f});
  std::map<std::string, TensorF> masters;
  for (auto& [name, t] : layer.params().Named()) {
    masters.emplace(name, t->Cast<float>());
  }

  double first_loss = 0, last_loss = 0;
  for (int step = 0; step < 30; ++step) {
    EncoderActivations acts;
    layer.Forward(x, acts);
    TensorH d_y(acts.y.shape());
    const double loss = MseLoss(acts.y, target, d_y);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    EncoderGradients grads;
    layer.Backward(d_y, acts, grads);
    auto grad_named = grads.params.Named();
    auto param_named = layer.params().Named();
    for (std::size_t p = 0; p < param_named.size(); ++p) {
      opt.Step(param_named[p].first, masters.at(param_named[p].first),
               *param_named[p].second, *grad_named[p].second);
    }
  }
  EXPECT_LT(last_loss, 0.6 * first_loss)
      << "loss should drop: " << first_loss << " -> " << last_loss;
}

}  // namespace
}  // namespace xflow::transformer
