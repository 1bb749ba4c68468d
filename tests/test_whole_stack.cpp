// Whole-stack executor parity: one graph (embedding -> N layers -> loss),
// one plan, one slab -- bitwise identical to the owning per-layer
// reference at every thread count, fused and unfused, fp16 and fp32,
// causal or not, checkpointed or not -- and allocation-free in steady
// state.
#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "graph/executor.hpp"
#include "tensor/memstats.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace xflow::transformer {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ThreadGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

EncoderConfig TestConfig(bool fused) {
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  cfg.dropout_prob = 0.1f;  // nonzero: exercises the whole seed schedule
  cfg.use_fused_kernels = fused;
  return cfg;
}

Shape Ibj(const graph::ModelDims& d) {
  return Shape("ibj", {d.i, d.b, d.j});
}

/// Owning per-layer forward+backward; outputs stay in acts/grads.
template <typename T>
void OwningRun(const EncoderStackT<T>& stack, const Tensor<T>& x,
               const Tensor<T>& d_y, std::vector<EncoderActivationsT<T>>& acts,
               std::vector<EncoderGradientsT<T>>& grads) {
  stack.Forward(x, acts);
  stack.Backward(d_y, acts, grads);
}

/// Runs the whole-stack executor over `arena` and checks y, d_x and every
/// weight gradient bitwise against the owning reference.
template <typename T>
void ExpectWholeStackMatches(
    const EncoderStackT<T>& stack, StackArenaT<T>& arena, const Tensor<T>& x,
    const Tensor<T>& d_y, const std::vector<EncoderActivationsT<T>>& ref_acts,
    std::vector<EncoderGradientsT<T>>& ref_grads) {
  const Tensor<T>& y = stack.Forward(x, arena);
  EXPECT_EQ(MaxAbsDiff(y, ref_acts.back().y), 0.0);
  std::vector<EncoderGradientsT<T>> grads;
  const Tensor<T>& d_x = stack.Backward(d_y, arena, grads);
  EXPECT_EQ(MaxAbsDiff(d_x, ref_grads.front().d_x), 0.0);
  ASSERT_EQ(grads.size(), ref_grads.size());
  for (std::size_t l = 0; l < grads.size(); ++l) {
    auto got = grads[l].params.Named();
    auto want = ref_grads[l].params.Named();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(MaxAbsDiff(*got[p].second, *want[p].second), 0.0)
          << "layer " << l << " grad " << got[p].first;
    }
  }
}

template <typename T = Half>
void ParityAt(const EncoderConfig& cfg, int layers, int threads) {
  SCOPED_TRACE(::testing::Message()
               << "fp32=" << (std::is_same_v<T, float>) << " fused="
               << cfg.use_fused_kernels << " causal=" << cfg.causal
               << " i=" << cfg.dims.i << " layers=" << layers
               << " threads=" << threads);
  ThreadGuard guard(threads);
  const auto& d = cfg.dims;
  EncoderStackT<T> stack(cfg, layers, 21);
  const auto x = Tensor<T>::Random(Ibj(d), 2);
  const auto d_y = Tensor<T>::Random(Ibj(d), 3);
  std::vector<EncoderActivationsT<T>> acts;
  std::vector<EncoderGradientsT<T>> ref_grads;
  OwningRun(stack, x, d_y, acts, ref_grads);

  auto arena = MakeStackArena<T>(cfg, {.num_layers = layers});
  ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
}

TEST(WholeStack, BitwiseMatchesOwningTiny) {
  for (const int threads : {1, 2, 8}) {
    for (const bool fused : {true, false}) {
      ParityAt(TestConfig(fused), 3, threads);
    }
  }
}

TEST(WholeStack, BitwiseMatchesOwningCausal) {
  for (const int threads : {1, 8}) {
    EncoderConfig cfg = TestConfig(/*fused=*/true);
    cfg.causal = true;
    ParityAt(cfg, 2, threads);
  }
}

TEST(WholeStack, BitwiseMatchesOwningSingleToken) {
  // b = j = k = 1 degenerates the GEMMs: per layer the two-input
  // contractions classify as 7 gemv, 3 ger, 2 reduction and 4 view
  // sites, so every specialized kernel class runs through the
  // executor's dispatch.
  for (const int threads : {1, 8}) {
    for (const bool fused : {true, false}) {
      EncoderConfig cfg = TestConfig(fused);
      cfg.dims.b = cfg.dims.j = cfg.dims.k = 1;
      ParityAt(cfg, 2, threads);
    }
  }
}

TEST(WholeStack, BitwiseMatchesOwningFloat) {
  // The fp32 stack (the causal decoder example trains in fp32) launches
  // the fp32 instantiations of the fused kernels; the owning per-operator
  // layer is their reference at this precision.
  for (const int threads : {1, 8}) {
    for (const bool fused : {true, false}) {
      for (const bool causal : {false, true}) {
        EncoderConfig cfg = TestConfig(fused);
        cfg.causal = causal;
        ParityAt<float>(cfg, 2, threads);
      }
    }
  }
}

TEST(WholeStack, BitwiseMatchesOwningBertBase) {
  // Full-size dims, one layer; the 1/8-thread CTest re-runs of this suite
  // provide the thread-count coverage. Skipped under sanitizers, where the
  // BERT-base contractions alone would dominate the job's budget (the
  // Tiny matrix above exercises every dispatch path there).
  if (UnderSanitizer()) {
    GTEST_SKIP() << "BERT-base bitwise suite is too slow under sanitizers";
  }
  for (const bool fused : {true, false}) {
    EncoderConfig cfg = TestConfig(fused);
    cfg.dims = graph::ModelDims::BertBase();
    ParityAt(cfg, 1, ThreadPool::ResolveGlobalThreads());
  }
}

TEST(WholeStack, CheckpointedLayersStayBitwiseIdentical) {
  // Recomputing layers 0 and 1 in the backward pass must not change a
  // single bit: the clones reuse the originals' dropout seeds and the
  // plan keeps every still-needed tensor apart.
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadGuard guard(threads);
    const EncoderConfig cfg = TestConfig(/*fused=*/true);
    const auto& d = cfg.dims;
    EncoderStack stack(cfg, 3, 23);
    const auto x = TensorH::Random(Ibj(d), 4);
    const auto d_y = TensorH::Random(Ibj(d), 5);
    std::vector<EncoderActivations> acts;
    std::vector<EncoderGradients> ref_grads;
    OwningRun(stack, x, d_y, acts, ref_grads);

    auto arena =
        MakeStackArena<Half>(cfg, {.num_layers = 3, .recompute_layers = {0, 1}});
    EXPECT_EQ(arena.recompute_layers(), (std::vector<int>{0, 1}));
    ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
  }
}

TEST(WholeStack, BudgetedPlanRunsBitwiseIdentical) {
  // A memory budget below the uncheckpointed peak routes through the
  // checkpoint planner; whatever it decides, execution stays bitwise
  // identical and the planned peak never exceeds the uncheckpointed one.
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const auto& d = cfg.dims;
  EncoderStack stack(cfg, 3, 29);
  const auto x = TensorH::Random(Ibj(d), 6);
  const auto d_y = TensorH::Random(Ibj(d), 7);
  std::vector<EncoderActivations> acts;
  std::vector<EncoderGradients> ref_grads;
  OwningRun(stack, x, d_y, acts, ref_grads);

  auto uncheckpointed = MakeStackArena<Half>(cfg, {.num_layers = 3});
  const std::size_t full_peak = uncheckpointed.plan().PeakBytes();
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = 3},
                                    /*memory_budget_bytes=*/full_peak / 2);
  EXPECT_LE(arena.plan().PeakBytes(), full_peak);
  ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
}

TEST(WholeStack, SecondBackwardWithoutForwardIsRejected) {
  // Backward recycles the saved activations' bytes, so a second Backward
  // with no Forward in between would read clobbered data and return wrong
  // gradients. It must fail by name instead; a fresh Forward makes
  // Backward valid again.
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadGuard guard(threads);
    const EncoderConfig cfg = TestConfig(/*fused=*/true);
    const auto& d = cfg.dims;
    EncoderStack stack(cfg, 2, 33);
    const auto x = TensorH::Random(Ibj(d), 8);
    const auto d_y = TensorH::Random(Ibj(d), 9);
    auto arena = MakeStackArena<Half>(cfg, {.num_layers = 2});
    std::vector<EncoderGradients> grads;
    stack.Forward(x, arena);
    stack.Backward(d_y, arena, grads);
    const TensorH w_qkv = grads[0].params.w_qkv;  // owning: a deep copy
    EXPECT_THROW(stack.Backward(d_y, arena, grads), InvalidArgument);
    stack.Forward(x, arena);
    stack.Backward(d_y, arena, grads);
    EXPECT_EQ(MaxAbsDiff(grads[0].params.w_qkv, w_qkv), 0.0);
  }
}

/// Mixed-precision Adam over every layer's parameters (fp32 masters
/// snapshotted at construction).
class StackTrainer {
 public:
  StackTrainer(EncoderStack& stack, float lr)
      : stack_(stack), opt_({.lr = lr}) {
    for (int l = 0; l < stack.num_layers(); ++l) {
      masters_.emplace_back();
      for (auto& [name, t] : stack.layer(l).params().Named()) {
        masters_.back().push_back(t->Cast<float>());
      }
    }
  }

  void Update(std::vector<EncoderGradients>& grads) {
    for (int l = 0; l < stack_.num_layers(); ++l) {
      const auto lu = static_cast<std::size_t>(l);
      auto named_params = stack_.layer(l).params().Named();
      auto named_grads = grads[lu].params.Named();
      for (std::size_t p = 0; p < named_params.size(); ++p) {
        opt_.Step(StrFormat("l%d.%s", l, named_params[p].first.c_str()),
                  masters_[lu][p], *named_params[p].second,
                  *named_grads[p].second);
      }
    }
  }

 private:
  EncoderStack& stack_;
  MixedPrecisionAdam opt_;
  std::vector<std::vector<TensorF>> masters_;
};

TEST(WholeStack, TrainsIdenticallyToOwning) {
  // Whole-loop equivalence including the optimizer trajectory: four
  // whole-stack train steps == four owning train steps, bit for bit.
  constexpr int kLayers = 2;
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const Shape ibj = Ibj(cfg.dims);
  auto run = [&](bool planned) {
    EncoderStack stack(cfg, kLayers, 3);
    auto arena = MakeStackArena<Half>(cfg, {.num_layers = kLayers});
    std::vector<EncoderActivations> acts;
    std::vector<EncoderGradients> grads;
    const auto x = TensorH::Random(ibj, 5);
    const auto target = TensorH::Random(ibj, 6);
    TensorH d_y(ibj);
    StackTrainer trainer(stack, 2e-3f);
    auto forward = [&]() -> const TensorH& {
      return planned ? stack.Forward(x, arena) : stack.Forward(x, acts);
    };
    for (int s = 0; s < 4; ++s) {
      MseLoss(forward(), target, d_y);
      if (planned) {
        stack.Backward(d_y, arena, grads);
      } else {
        stack.Backward(d_y, acts, grads);
      }
      trainer.Update(grads);
    }
    // Deep-copy the result: on the planned path y is a view into the
    // local arena.
    TensorH out(ibj);
    CopyValuesInto(forward(), out);
    return out;
  };
  EXPECT_EQ(MaxAbsDiff(run(false), run(true)), 0.0);
}

TEST(WholeStack, SteadyStateTrainStepIsAllocationFree) {
  // The planned path's steady-state contract: after warmup, a full train
  // step (forward, loss, backward, Adam) performs zero tensor-buffer and
  // zero workspace allocations, zero einsum offset-table rebuilds and
  // reclassifications, and never re-tunes a contraction bucket.
  constexpr int kLayers = 2;
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const Shape ibj = Ibj(cfg.dims);
  EncoderStack stack(cfg, kLayers, 3);
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = kLayers});
  std::vector<EncoderGradients> grads;
  const auto x = TensorH::Random(ibj, 5);
  const auto target = TensorH::Random(ibj, 6);
  TensorH d_y(ibj);
  StackTrainer trainer(stack, 1e-3f);

  double loss = 0;
  auto step = [&] {
    loss = MseLoss(stack.Forward(x, arena), target, d_y);
    stack.Backward(d_y, arena, grads);
    trainer.Update(grads);
  };

  step();  // warmup: executor, accumulators, optimizer state, tables
  step();
  const double warm_loss = loss;
  const auto before = memstats::Read();
  step();
  const auto after = memstats::Read();
  EXPECT_EQ(after.tensor_allocs, before.tensor_allocs)
      << "steady-state step allocated "
      << after.tensor_bytes - before.tensor_bytes << " tensor bytes";
  EXPECT_EQ(after.workspace_allocs, before.workspace_allocs);
  EXPECT_EQ(after.einsum_table_builds, before.einsum_table_builds)
      << "steady-state step rebuilt einsum offset tables";
  EXPECT_EQ(after.einsum_class_builds, before.einsum_class_builds)
      << "steady-state step reclassified einsum contractions";
  EXPECT_EQ(after.autotune_measures, before.autotune_measures)
      << "steady-state step re-tuned a contraction bucket";
  EXPECT_LT(loss, warm_loss);  // and it still trains
}

TEST(WholeStack, EmbeddingAndLossHeadsMatchReference) {
  // Whole pipeline in one graph: token ids -> embedding -> 2 layers ->
  // MSE loss -> backward -> table gradients, checked bitwise against the
  // module-by-module reference (EmbeddingT + owning stack + MseLoss).
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const auto& d = cfg.dims;
  const std::int64_t vocab = 17;
  EncoderStack stack(cfg, 2, 31);
  EmbeddingT<Half> emb(vocab, d, 41);
  TokenIds tokens(static_cast<std::size_t>(d.b * d.j));
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    tokens[t] = static_cast<std::int32_t>((7 * t + 3) % vocab);
  }
  const auto target = TensorH::Random(Ibj(d), 8);

  const auto x = emb.Forward(tokens);
  std::vector<EncoderActivations> acts;
  stack.Forward(x, acts);
  TensorH ref_d_y(acts.back().y.shape());
  const double ref_loss = MseLoss(acts.back().y, target, ref_d_y);
  std::vector<EncoderGradients> ref_grads;
  stack.Backward(ref_d_y, acts, ref_grads);
  TensorH ref_d_tok(emb.token_table().shape());
  TensorH ref_d_pos(emb.pos_table().shape());
  emb.Backward(ref_grads.front().d_x, tokens, ref_d_tok, ref_d_pos);

  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = 2, .vocab = vocab, .include_loss = true});
  auto& ex = stack.Executor(arena);
  ex.BindInput("token_table", emb.token_table());
  ex.BindInput("pos_table", emb.pos_table());
  ex.BindTokens(tokens);
  ex.BindInput("target", target);
  TensorH d_tok(emb.token_table().shape());
  TensorH d_pos(emb.pos_table().shape());
  ex.BindOutput("d_token_table", d_tok);
  ex.BindOutput("d_pos_table", d_pos);
  std::vector<EncoderGradients> grads(2);
  for (std::size_t l = 0; l < grads.size(); ++l) {
    grads[l].params.EnsureShapes(d);
    for (auto& [name, tensor] : grads[l].params.Named()) {
      ex.BindOutput(StrFormat("L%zu.d_%s", l, name.c_str()), *tensor);
    }
  }
  ex.Forward();
  EXPECT_DOUBLE_EQ(ex.last_loss(), ref_loss);  // loss head runs in Forward
  // Read y before Backward: the loss op is its last consumer, so the plan
  // legitimately recycles its bytes during the backward pass.
  const auto y = arena.ViewAs<Half>("L1.y", Ibj(d));
  EXPECT_EQ(MaxAbsDiff(y, acts.back().y), 0.0);
  ex.Backward();
  EXPECT_EQ(MaxAbsDiff(d_tok, ref_d_tok), 0.0);
  EXPECT_EQ(MaxAbsDiff(d_pos, ref_d_pos), 0.0);
  for (std::size_t l = 0; l < grads.size(); ++l) {
    auto got = grads[l].params.Named();
    auto want = ref_grads[l].params.Named();
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(MaxAbsDiff(*got[p].second, *want[p].second), 0.0)
          << "layer " << l << " grad " << got[p].first;
    }
  }
}

TEST(WholeStack, PlanVerifiesCleanWithOptions) {
  // Every produced plan -- plain, explicitly checkpointed, and budgeted --
  // passes the verifier against its own options, as in the executor's
  // pre-flight.
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}}) {  // 1 byte: maximal checkpointing
    graph::StackGraphOptions options{.num_layers = 3,
                                     .vocab = 17,
                                     .include_loss = true};
    if (budget == 0) {
      auto graph = graph::BuildEncoderStack(cfg.dims, options);
      const auto plan_options = StackPlanOptions<Half>(graph);
      const auto plan = graph::PlanMemory(graph, plan_options);
      EXPECT_TRUE(graph::Verify(graph, plan, plan_options).ok())
          << graph::Verify(graph, plan, plan_options).Summary();
    } else {
      const auto ckpt = graph::PlanCheckpointedStack(
          cfg.dims, options,
          [](const graph::DataflowGraph& g) {
            return StackPlanOptions<Half>(g);
          },
          budget);
      EXPECT_FALSE(ckpt.recompute_layers.empty());
      const auto plan_options = StackPlanOptions<Half>(ckpt.graph);
      EXPECT_TRUE(graph::Verify(ckpt.graph, ckpt.plan, plan_options).ok())
          << graph::Verify(ckpt.graph, ckpt.plan, plan_options).Summary();
      EXPECT_EQ(ckpt.plan.options().fused_spans, plan_options.fused_spans);
    }
  }
}

}  // namespace
}  // namespace xflow::transformer
