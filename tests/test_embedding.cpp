#include "transformer/embedding.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "graph/executor.hpp"
#include "test_util.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"

namespace xflow::transformer {
namespace {

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

}  // namespace
}  // namespace xflow::transformer
