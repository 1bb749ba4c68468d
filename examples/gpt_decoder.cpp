// GPT-style causal language model: embedding + a stack of causal encoder
// blocks + tied LM head + softmax cross-entropy, trained to memorize a
// synthetic token sequence. Demonstrates the paper's claim that decoder
// models (GPT-2/3) reuse the same building blocks (Sec. VIII). The block
// stack runs as one planned graph over one slab (MakeStackArena).
//
//   ./gpt_decoder [--layers=2] [--steps=40] [--vocab=17] [--threads=N]
#include <cstdio>
#include <map>
#include <vector>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "tensor/einsum.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

int main(int argc, char** argv) {
  using namespace xflow;
  using namespace xflow::transformer;
  const ArgParser args(argc, argv);
  const int layers = static_cast<int>(args.GetInt("layers", 2));
  const int steps = static_cast<int>(args.GetInt("steps", 40));
  const std::int64_t vocab = args.GetInt("vocab", 17);
  if (args.Has("threads")) {
    ThreadPool::SetGlobalThreads(args.GetInt("threads", 1));
  }

  graph::ModelDims dims;
  dims.b = 2;
  dims.j = dims.k = 12;
  dims.h = 2;
  dims.p = 8;
  dims.i = 16;
  dims.u = 64;

  EncoderConfig cfg;
  cfg.dims = dims;
  cfg.dropout_prob = 0.0f;
  cfg.causal = true;  // GPT-style masked self-attention

  // fp32 model end to end for a stable toy optimization.
  EncoderStackT<float> stack(cfg, layers, 5);
  auto arena = MakeStackArena<float>(cfg, {.num_layers = layers});
  std::vector<EncoderGradientsT<float>> grads;
  EmbeddingT<float> embedding(vocab, dims, 11);

  // Task: next-token prediction on a fixed periodic sequence.
  TokenIds tokens(static_cast<std::size_t>(dims.b * dims.j));
  TokenIds targets(tokens.size());
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    tokens[t] = static_cast<std::int32_t>((t * 3 + 1) % vocab);
    targets[t] = static_cast<std::int32_t>((t * 3 + 4) % vocab);
  }

  MixedPrecisionAdam opt({.lr = 3e-3f});
  std::map<std::string, TensorF> masters;
  std::map<std::string, TensorH> workings;  // fp16 mirrors for the optimizer

  auto adam_step = [&](const std::string& name, TensorF& param,
                       const TensorF& grad) {
    if (!masters.contains(name)) {
      masters.emplace(name, param);
      workings.emplace(name, param.Cast<Half>());
    }
    opt.Step(name, masters.at(name), workings.at(name), grad.Cast<Half>());
    // In place: the stack's executor holds the layer weights by reference.
    CopyValuesInto(masters.at(name), param);
  };

  std::printf("GPT-style decoder: %d layers, vocab %ld, %d steps\n", layers,
              vocab, steps);
  double first = 0, last = 0;
  for (int step = 0; step < steps; ++step) {
    auto x = embedding.Forward(tokens);
    // y and d_x are arena views, valid until the next step.
    const TensorF& y = stack.Forward(x, arena);
    auto logits = LmLogits(embedding.token_table(), y);
    TensorF d_logits(logits.shape());
    const double loss = SoftmaxCrossEntropy(logits, targets, d_logits);
    if (step == 0) first = loss;
    last = loss;
    if (step % 10 == 0) std::printf("  step %3d  loss %.4f\n", step, loss);

    // Backward: head -> stack -> embedding (head/embedding tied).
    auto d_y = Einsum<float>("vi,vbj->ibj", embedding.token_table(),
                             d_logits);
    auto d_table_head = Einsum<float>("vbj,ibj->vi", d_logits, y);
    const TensorF& d_x = stack.Backward(d_y, arena, grads);
    TensorF d_table_emb(embedding.token_table().shape());
    TensorF d_pos(embedding.pos_table().shape());
    embedding.Backward(d_x, tokens, d_table_emb, d_pos);
    for (std::int64_t e = 0; e < d_table_emb.size(); ++e) {
      d_table_emb.data()[e] += d_table_head.data()[e];  // tied weights
    }

    for (int l = 0; l < layers; ++l) {
      auto lu = static_cast<std::size_t>(l);
      auto named_p = stack.layer(l).params().Named();
      auto named_g = grads[lu].params.Named();
      for (std::size_t p = 0; p < named_p.size(); ++p) {
        adam_step(StrFormat("l%d.%s", l, named_p[p].first.c_str()),
                  *named_p[p].second, *named_g[p].second);
      }
    }
    adam_step("embed.tok", embedding.token_table(), d_table_emb);
    adam_step("embed.pos", embedding.pos_table(), d_pos);
  }
  std::printf("loss %.4f -> %.4f (%.1fx)\n", first, last, first / last);
  std::printf("%s\n", last < 0.7 * first ? "decoder learns the sequence."
                                         : "WARNING: poor convergence");
  return last < 0.7 * first ? 0 : 1;
}
