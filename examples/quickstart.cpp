// Quickstart: plan a BERT encoder layer's training step as one dataflow
// graph, run its forward + backward through the graph executor on the CPU
// substrate (the paper's fused kernels over one liveness-planned slab),
// and ask the device model what the same schedule costs on a V100 -- the
// three public API layers of this library in ~90 lines.
//
//   ./quickstart [--threads=N]   (or XFLOW_THREADS=N ./quickstart)
#include <chrono>
#include <cstdio>
#include <vector>

#include "baselines/plans.hpp"
#include "common/cli.hpp"
#include "common/threadpool.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

int main(int argc, char** argv) {
  using namespace xflow;
  using Clock = std::chrono::steady_clock;

  // All einsum/GEMM calls below run on the global pool; --threads
  // overrides the XFLOW_THREADS env var, which overrides the core count.
  const ArgParser args(argc, argv);
  if (args.Has("threads")) {
    ThreadPool::SetGlobalThreads(
        static_cast<int>(args.GetInt("threads", 1)));
  }
  std::printf("xflow threads: %d\n", ThreadPool::Global().threads());

  // 1. A small encoder layer (the full BERT-large dims also work; they are
  //    just slow on a CPU). Dimension names follow the paper.
  graph::ModelDims dims;
  dims.b = 2;       // batch
  dims.j = dims.k = 32;  // sequence length
  dims.h = 4;       // heads
  dims.p = 16;      // projection size
  dims.i = 64;      // embedding
  dims.u = 256;     // feed-forward width

  transformer::EncoderConfig cfg;
  cfg.dims = dims;
  cfg.dropout_prob = 0.1f;
  cfg.use_fused_kernels = true;  // the paper's fused kernels

  // A one-layer stack; its single graph, plan and slab live in the arena.
  const transformer::EncoderStack stack(cfg, /*num_layers=*/1,
                                        /*seed=*/42);
  auto arena = transformer::MakeStackArena<Half>(cfg, {.num_layers = 1});
  stack.Executor(arena);  // build the executor outside the timed step

  // 2. Forward + backward on synthetic data (fp16 storage, fp32 math).
  auto x = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}), 7);

  const auto t0 = Clock::now();
  const TensorH& y = stack.Forward(x, arena);  // an arena view
  const auto t1 = Clock::now();

  auto target = TensorH::Random(y.shape(), 9);
  TensorH d_y(y.shape());
  const double loss = transformer::MseLoss(y, target, d_y);

  std::vector<transformer::EncoderGradients> grads;
  const TensorH& d_x = stack.Backward(d_y, arena, grads);
  const auto t2 = Clock::now();

  const auto us = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
        .count();
  };
  std::printf("encoder layer: i=%ld h=%ld p=%ld u=%ld, batch=%ld, seq=%ld\n",
              dims.i, dims.h, dims.p, dims.u, dims.b, dims.j);
  std::printf("forward:  %lld us (CPU substrate)\n",
              static_cast<long long>(us(t0, t1)));
  std::printf("backward: %lld us (CPU substrate)\n",
              static_cast<long long>(us(t1, t2)));
  std::printf("loss vs random target: %.4f\n", loss);
  std::printf("d_x norm check: |d_x| max = %.4f\n", [&] {
    float m = 0;
    for (std::int64_t i = 0; i < d_x.size(); ++i) {
      m = std::max(m, std::abs(float(d_x.data()[i])));
    }
    return m;
  }());

  // 3. The same layer at paper scale through the V100 device model.
  const sim::GpuModel model(sim::DeviceSpec::V100());
  const auto ours = baselines::PlanEncoder(
      baselines::Framework::kOurs, model, graph::ModelDims::BertLarge());
  const auto pt = baselines::PlanEncoder(
      baselines::Framework::kPyTorch, model, graph::ModelDims::BertLarge());
  std::printf("\nBERT-large on the V100 model: ours %.2f ms vs PyTorch %.2f"
              " ms per layer (%.2fx)\n",
              ours.TotalUs() / 1000.0, pt.TotalUs() / 1000.0,
              pt.TotalUs() / ours.TotalUs());
  return 0;
}
