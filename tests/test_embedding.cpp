#include "transformer/embedding.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "graph/executor.hpp"
#include "ops/embedding.hpp"
#include "test_util.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"

// Heap allocations on any thread while counting is on (see test_einsum).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int> g_allocs{0};
}  // namespace

// Out of line, so GCC does not pair an inlined free() with a new-
// expression and report a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace xflow::transformer {
namespace {

using testutil::BitwiseSame;
using testutil::ThreadGuard;

graph::ModelDims EmbDims() {
  auto d = graph::ModelDims::Tiny();
  d.b = 2;
  d.j = 4;
  d.i = 8;
  return d;
}

TEST(Embedding, ForwardSumsTokenAndPosition) {
  const auto d = EmbDims();
  EmbeddingT<float> emb(10, d, 1);
  TokenIds tokens = {0, 1, 2, 3, 4, 5, 6, 7};
  auto x = emb.Forward(tokens);
  EXPECT_EQ(x.shape().names(), "ibj");
  for (std::int64_t i = 0; i < d.i; ++i) {
    const float expected = emb.token_table().at({{'v', 3}, {'i', i}}) +
                           emb.pos_table().at({{'j', 3}, {'i', i}});
    EXPECT_FLOAT_EQ(x.at({{'i', i}, {'b', 0}, {'j', 3}}), expected);
  }
}

TEST(Embedding, SameTokenSharesRows) {
  const auto d = EmbDims();
  EmbeddingT<float> emb(10, d, 2);
  TokenIds tokens = {5, 5, 5, 5, 5, 5, 5, 5};
  auto x = emb.Forward(tokens);
  // Same token at the same position in different batches => same vector.
  for (std::int64_t i = 0; i < d.i; ++i) {
    EXPECT_FLOAT_EQ(x.at({{'i', i}, {'b', 0}, {'j', 2}}),
                    x.at({{'i', i}, {'b', 1}, {'j', 2}}));
  }
}

/// The message of the InvalidArgument `fn` throws ("" when it does not).
template <typename Fn>
std::string InvalidArgumentMessage(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Embedding, RejectsBadInput) {
  // An id outside [0, vocab) must fail by name in both directions; the
  // backward scatter-add would otherwise write outside the gradient table.
  const auto d = EmbDims();  // b = 2, j = 4
  EmbeddingT<float> emb(10, d, 3);
  EXPECT_THROW(emb.Forward({1, 2, 3}), InvalidArgument);  // wrong count
  TokenIds bad(static_cast<std::size_t>(d.b * d.j), 0);
  bad[6] = 99;  // [b=1][j=2], out of vocab
  EXPECT_NE(InvalidArgumentMessage([&] { emb.Forward(bad); })
                .find("token id 99 at [b=1][j=2] is outside the vocabulary "
                      "[0, 10)"),
            std::string::npos);

  auto d_x = TensorF::Full(Shape("ibj", {d.i, d.b, d.j}), 1.0f);
  TensorF d_tok(Shape("vi", {10, d.i})), d_pos(Shape("ji", {d.j, d.i}));
  for (const std::int32_t id : {10, -1}) {
    SCOPED_TRACE(::testing::Message() << "id " << id);
    TokenIds tokens(static_cast<std::size_t>(d.b * d.j), 1);
    tokens[3] = id;  // [b=0][j=3]
    const std::string what = InvalidArgumentMessage(
        [&] { emb.Backward(d_x, tokens, d_tok, d_pos); });
    EXPECT_NE(what.find(StrFormat("token id %d at [b=0][j=3] is outside the "
                                  "vocabulary [0, 10)",
                                  id)),
              std::string::npos)
        << what;
  }
}

TEST(Embedding, ExecutorBackwardRejectsIdsReboundAfterForward) {
  // The executor reads the bound ids again in backward, so ids rebound
  // between Forward and Backward are checked there too, and the error
  // names the step that hit them.
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  const auto& d = cfg.dims;
  const std::int64_t vocab = 17;
  EncoderStack stack(cfg, 1, 31);
  EmbeddingT<Half> emb(vocab, d, 41);
  TokenIds tokens(static_cast<std::size_t>(d.b * d.j), 3);
  const auto target = TensorH::Random(Shape("ibj", {d.i, d.b, d.j}), 8);

  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = 1, .vocab = vocab, .include_loss = true});
  auto& ex = stack.Executor(arena);
  ex.BindInput("token_table", emb.token_table());
  ex.BindInput("pos_table", emb.pos_table());
  ex.BindTokens(tokens);
  ex.BindInput("target", target);
  TensorH d_tok(emb.token_table().shape());
  TensorH d_pos(emb.pos_table().shape());
  ex.BindOutput("d_token_table", d_tok);
  ex.BindOutput("d_pos_table", d_pos);
  EncoderGradients grads;
  grads.params.EnsureShapes(d);
  for (auto& [name, tensor] : grads.params.Named()) {
    ex.BindOutput(StrFormat("L0.d_%s", name.c_str()), *tensor);
  }
  ex.Forward();
  tokens[static_cast<std::size_t>(d.j + 2)] = static_cast<std::int32_t>(vocab);
  ex.BindTokens(tokens);
  const std::string what = InvalidArgumentMessage([&] { ex.Backward(); });
  EXPECT_NE(what.find("token id 17 at [b=1][j=2] is outside the vocabulary "
                      "[0, 17)"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("[while executing"), std::string::npos) << what;
}

TEST(Embedding, ExecutorLossHeadRejectsAPermutedTarget) {
  // Externals bind by element count, so a target in another dim order
  // reaches the loss kernel, which pairs elements by memory position: it
  // must refuse the target by shape, and the error names the loss op.
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  const auto& d = cfg.dims;
  const std::int64_t vocab = 17;
  EncoderStack stack(cfg, 1, 31);
  EmbeddingT<Half> emb(vocab, d, 41);
  const TokenIds tokens(static_cast<std::size_t>(d.b * d.j), 3);
  const auto target = TensorH::Random(Shape("bji", {d.b, d.j, d.i}), 8);

  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = 1, .vocab = vocab, .include_loss = true});
  auto& ex = stack.Executor(arena);
  ex.BindInput("token_table", emb.token_table());
  ex.BindInput("pos_table", emb.pos_table());
  ex.BindTokens(tokens);
  ex.BindInput("target", target);
  const std::string what = InvalidArgumentMessage([&] { ex.Forward(); });
  EXPECT_NE(what.find(StrFormat("target bji[%lld,%lld,%lld]",
                                static_cast<long long>(d.b),
                                static_cast<long long>(d.j),
                                static_cast<long long>(d.i))),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("[while executing op 'loss'"), std::string::npos)
      << what;
}

TEST(Embedding, BackwardAccumulatesRepeatedTokens) {
  const auto d = EmbDims();
  EmbeddingT<float> emb(10, d, 4);
  TokenIds tokens = {7, 7, 7, 7, 7, 7, 7, 7};  // all the same token
  auto d_x = TensorF::Full(Shape("ibj", {d.i, d.b, d.j}), 1.0f);
  TensorF d_tok(Shape("vi", {10, d.i})), d_pos(Shape("ji", {d.j, d.i}));
  emb.Backward(d_x, tokens, d_tok, d_pos);
  for (std::int64_t i = 0; i < d.i; ++i) {
    // Token 7 occurs b*j = 8 times.
    EXPECT_FLOAT_EQ(d_tok.at({{'v', 7}, {'i', i}}), 8.0f);
    EXPECT_FLOAT_EQ(d_tok.at({{'v', 0}, {'i', i}}), 0.0f);
    // Each position occurs b = 2 times.
    EXPECT_FLOAT_EQ(d_pos.at({{'j', 1}, {'i', i}}), 2.0f);
  }
}

TEST(Embedding, GradientMatchesFiniteDifferences) {
  const auto d = EmbDims();
  EmbeddingT<float> emb(6, d, 5);
  TokenIds tokens = {0, 1, 2, 3, 4, 5, 0, 1};
  auto loss = [&] { return testutil::ProbeLoss(emb.Forward(tokens)); };
  auto numeric = testutil::NumericalGradient(emb.token_table(), loss, 1e-3f);

  auto d_x = testutil::ProbeLossGrad(Shape("ibj", {d.i, d.b, d.j}));
  TensorF d_tok(Shape("vi", {6, d.i})), d_pos(Shape("ji", {d.j, d.i}));
  emb.Backward(d_x, tokens, d_tok, d_pos);
  EXPECT_LT(MaxAbsDiff(d_tok, numeric), 1e-3);
}

TEST(LmHead, LogitsAreTableTimesActivations) {
  const auto d = EmbDims();
  auto table = TensorF::Random(Shape("vi", {5, d.i}), 6);
  auto x = TensorF::Random(Shape("ibj", {d.i, d.b, d.j}), 7);
  auto logits = LmLogits(table, x);
  EXPECT_EQ(logits.shape().names(), "vbj");
  float manual = 0;
  for (std::int64_t i = 0; i < d.i; ++i) {
    manual += table.at({{'v', 2}, {'i', i}}) *
              x.at({{'i', i}, {'b', 1}, {'j', 3}});
  }
  EXPECT_NEAR(logits.at({{'v', 2}, {'b', 1}, {'j', 3}}), manual, 1e-4);
}

TEST(CrossEntropy, PerfectPredictionHasLowLossAndTinyGradient) {
  TensorF logits(Shape("vbj", {4, 1, 2}));
  TokenIds targets = {2, 0};
  // Put huge mass on the targets.
  logits.at({{'v', 2}, {'b', 0}, {'j', 0}}) = 20.0f;
  logits.at({{'v', 0}, {'b', 0}, {'j', 1}}) = 20.0f;
  TensorF d_logits(logits.shape());
  const double loss = SoftmaxCrossEntropy(logits, targets, d_logits);
  EXPECT_LT(loss, 1e-6);
  for (std::int64_t e = 0; e < d_logits.size(); ++e) {
    EXPECT_LT(std::abs(d_logits.data()[e]), 1e-6);
  }
}

TEST(CrossEntropy, UniformLogitsGiveLogVocab) {
  TensorF logits(Shape("vbj", {8, 2, 3}));  // all zeros -> uniform
  TokenIds targets = {0, 1, 2, 3, 4, 5};
  TensorF d_logits(logits.shape());
  const double loss = SoftmaxCrossEntropy(logits, targets, d_logits);
  EXPECT_NEAR(loss, std::log(8.0), 1e-6);
}

TEST(CrossEntropy, GradientMatchesFiniteDifferences) {
  auto logits = TensorF::Random(Shape("vbj", {5, 2, 2}), 8);
  TokenIds targets = {1, 4, 0, 2};
  TensorF d_logits(logits.shape());
  SoftmaxCrossEntropy(logits, targets, d_logits);

  auto numeric = testutil::NumericalGradient(
      logits,
      [&] {
        TensorF tmp(logits.shape());
        return SoftmaxCrossEntropy(logits, targets, tmp);
      },
      1e-3f);
  EXPECT_LT(MaxAbsDiff(d_logits, numeric), 1e-4);
}

// ---------------------------------------------- independent references
// The named-dim loop nests the kernels replaced. Each kernel must match
// its reference bitwise at every thread count: the thread re-runs compare
// a kernel only with itself, and whole-stack parity compares two callers
// of the same kernels, so only these catch a kernel that reorders a sum.

template <typename T>
void NamedDimEmbeddingForward(const Tensor<T>& token_table,
                              const Tensor<T>& pos_table,
                              const TokenIds& tokens, Tensor<T>& x) {
  const std::int64_t bn = x.extent('b');
  const std::int64_t jn = x.extent('j');
  const std::int64_t in = x.extent('i');
  for (std::int64_t b = 0; b < bn; ++b) {
    for (std::int64_t j = 0; j < jn; ++j) {
      const auto id = tokens[static_cast<std::size_t>(b * jn + j)];
      for (std::int64_t i = 0; i < in; ++i) {
        const float tok = float(token_table.at({{'v', id}, {'i', i}}));
        const float pos = float(pos_table.at({{'j', j}, {'i', i}}));
        x.at({{'i', i}, {'b', b}, {'j', j}}) = T(tok + pos);
      }
    }
  }
}

template <typename T>
void NamedDimEmbeddingBackward(const Tensor<T>& d_x, const TokenIds& tokens,
                               Tensor<T>& d_token_table,
                               Tensor<T>& d_pos_table) {
  const std::int64_t bn = d_x.extent('b');
  const std::int64_t jn = d_x.extent('j');
  const std::int64_t in = d_x.extent('i');
  std::vector<float> acc_tok(static_cast<std::size_t>(d_token_table.size()));
  std::vector<float> acc_pos(static_cast<std::size_t>(d_pos_table.size()));
  for (std::int64_t b = 0; b < bn; ++b) {
    for (std::int64_t j = 0; j < jn; ++j) {
      const std::int64_t id = tokens[static_cast<std::size_t>(b * jn + j)];
      for (std::int64_t i = 0; i < in; ++i) {
        const float g = float(d_x.at({{'i', i}, {'b', b}, {'j', j}}));
        acc_tok[static_cast<std::size_t>(
            d_token_table.OffsetOf(std::array{std::pair{'v', id},
                                              std::pair{'i', i}}))] += g;
        acc_pos[static_cast<std::size_t>(d_pos_table.OffsetOf(
            std::array{std::pair{'j', j}, std::pair{'i', i}}))] += g;
      }
    }
  }
  for (std::int64_t e = 0; e < d_token_table.size(); ++e) {
    d_token_table.data()[e] = T(acc_tok[static_cast<std::size_t>(e)]);
  }
  for (std::int64_t e = 0; e < d_pos_table.size(); ++e) {
    d_pos_table.data()[e] = T(acc_pos[static_cast<std::size_t>(e)]);
  }
}

template <typename T>
double ScalarMseLoss(const Tensor<T>& y, const Tensor<T>& target,
                     Tensor<T>& d_y) {
  const double n = static_cast<double>(y.size());
  double loss = 0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    const float diff = float(y.data()[i]) - float(target.data()[i]);
    loss += static_cast<double>(diff) * diff;
    d_y.data()[i] = T(2.0f * diff / static_cast<float>(n));
  }
  return loss / n;
}

constexpr std::int64_t kRefVocab = 6;

/// Heavily repeated ids: ids 0-2 take almost every position, 4 a few, and
/// 3 and 5 none, so their gradient rows must come out +0.
TokenIds RepeatedIds(std::int64_t count) {
  TokenIds ids(static_cast<std::size_t>(count));
  for (std::int64_t e = 0; e < count; ++e) {
    ids[static_cast<std::size_t>(e)] =
        static_cast<std::int32_t>(e % 11 == 5 ? 4 : (e * 7 + e / 3) % 3);
  }
  return ids;
}

struct EmbeddingCase {
  const char* x_layout;
  const char* token_layout;
  const char* pos_layout;
  std::int64_t i, b, j;
};

// 'i' of 37 and 21 is no multiple of a cache line of Half or float; x is
// stored with 'i' outermost, innermost and in between; j = 1 leaves a
// single position.
constexpr EmbeddingCase kEmbeddingCases[] = {
    {"ibj", "vi", "ji", 37, 3, 40},
    {"bji", "iv", "ij", 37, 3, 40},
    {"jib", "iv", "ji", 21, 2, 9},
    {"bji", "vi", "ij", 21, 4, 1},
};

template <typename T>
void ExpectEmbeddingMatchesNamedDimLoops(const EmbeddingCase& c) {
  const Shape x_shape = Shape("ibj", {c.i, c.b, c.j}).Permuted(c.x_layout);
  const auto token_table = Tensor<T>::Random(
      Shape("vi", {kRefVocab, c.i}).Permuted(c.token_layout), 1);
  const auto pos_table =
      Tensor<T>::Random(Shape("ji", {c.j, c.i}).Permuted(c.pos_layout), 2);
  const TokenIds tokens = RepeatedIds(c.b * c.j);
  const auto d_x = Tensor<T>::Random(x_shape, 3);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message()
                 << "x " << c.x_layout << ", tables " << c.token_layout
                 << "/" << c.pos_layout << ", " << threads << " threads");
    ThreadGuard guard(threads);
    // NaN-filled outputs: every element must be written.
    auto x = Tensor<T>::Full(x_shape, nan);
    auto x_ref = Tensor<T>::Full(x_shape, nan);
    ops::EmbeddingForwardKernel(token_table, pos_table, tokens, x);
    NamedDimEmbeddingForward(token_table, pos_table, tokens, x_ref);
    EXPECT_TRUE(BitwiseSame(x_ref, x));

    auto d_tok = Tensor<T>::Full(token_table.shape(), nan);
    auto d_pos = Tensor<T>::Full(pos_table.shape(), nan);
    Tensor<T> d_tok_ref(token_table.shape()), d_pos_ref(pos_table.shape());
    ops::EmbeddingBackwardKernel(d_x, tokens, d_tok, d_pos);
    NamedDimEmbeddingBackward(d_x, tokens, d_tok_ref, d_pos_ref);
    EXPECT_TRUE(BitwiseSame(d_tok_ref, d_tok));
    EXPECT_TRUE(BitwiseSame(d_pos_ref, d_pos));
  }
}

TEST(EmbeddingKernels, MatchNamedDimLoopsBitwise) {
  for (const auto& c : kEmbeddingCases) {
    ExpectEmbeddingMatchesNamedDimLoops<Half>(c);
    ExpectEmbeddingMatchesNamedDimLoops<float>(c);
  }
}

TEST(EmbeddingKernels, RejectTablesThatAreNotViAndJi) {
  // Both kernels address the tables as [v,i] and [j,i], so any other table
  // shape fails by name before a table element is read or written.
  const Shape x_shape("ibj", {8, 2, 4});
  const TokenIds tokens(8, 1);
  const auto token_table = TensorF::Random(Shape("vi", {3, 8}), 1);
  const auto x = TensorF::Random(x_shape, 2);
  for (const Shape& pos_shape :
       {Shape("i", {8}), Shape("ji", {5, 8}), Shape("bji", {2, 4, 8})}) {
    SCOPED_TRACE(ToString(pos_shape));
    const auto pos_table = TensorF::Random(pos_shape, 3);
    TensorF x_out(x_shape), d_tok(token_table.shape()), d_pos(pos_shape);
    for (const std::string& what :
         {InvalidArgumentMessage([&] {
            ops::EmbeddingForwardKernel(token_table, pos_table, tokens,
                                        x_out);
          }),
          InvalidArgumentMessage([&] {
            ops::EmbeddingBackwardKernel(x, tokens, d_tok, d_pos);
          })}) {
      EXPECT_NE(what.find("must be [v,i] and [j,i]"), std::string::npos)
          << what;
      EXPECT_NE(what.find(ToString(pos_shape)), std::string::npos) << what;
    }
  }
}

template <typename T>
void ExpectMseLossMatchesScalarLoop(const Shape& shape) {
  const auto y = Tensor<T>::Random(shape, 4);
  const auto target = Tensor<T>::Random(shape, 5);
  Tensor<T> d_y_ref(shape);
  const double ref = ScalarMseLoss(y, target, d_y_ref);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(::testing::Message()
                 << ToString(shape) << ", " << threads << " threads");
    ThreadGuard guard(threads);
    Tensor<T> d_y(shape);
    const double loss = ops::MseLossKernel(y, target, d_y);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
              std::bit_cast<std::uint64_t>(loss));
    EXPECT_TRUE(BitwiseSame(d_y_ref, d_y));
  }
}

TEST(EmbeddingKernels, MseLossMatchesScalarLoopBitwise) {
  // 4440 elements is no multiple of the kernel's d_y chunk.
  for (const Shape& shape :
       {Shape("bji", {3, 40, 37}), Shape("ibj", {1, 1, 1})}) {
    ExpectMseLossMatchesScalarLoop<Half>(shape);
    ExpectMseLossMatchesScalarLoop<float>(shape);
  }
}

TEST(EmbeddingAllocations, WarmBackwardAllocatesNothing) {
  // The column sums live in per-thread scratch, so a warm call makes no
  // heap allocation. One thread, because at more the pool's ParallelFor
  // itself allocates about once per call.
  ThreadGuard guard(1);
  const Shape x_shape("ibj", {37, 3, 40});
  const auto d_x = TensorH::Random(x_shape, 6);
  const TokenIds tokens = RepeatedIds(3 * 40);
  TensorH d_tok(Shape("vi", {kRefVocab, 37})), d_pos(Shape("ji", {40, 37}));
  ops::EmbeddingBackwardKernel(d_x, tokens, d_tok, d_pos);  // warms scratch
  g_allocs.store(0);
  g_count_allocs.store(true);
  ops::EmbeddingBackwardKernel(d_x, tokens, d_tok, d_pos);
  g_count_allocs.store(false);
  EXPECT_EQ(g_allocs.load(), 0);
}

}  // namespace
}  // namespace xflow::transformer
