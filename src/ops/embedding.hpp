// Embedding lookup and MSE-loss kernels, shared between the hand-wired
// transformer layers (transformer/embedding.cpp, transformer/training.cpp)
// and the graph executor's kEmbed/kEmbedDW/kMseLoss dispatch. One loop nest
// per operation keeps the two paths bitwise identical by construction.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "tensor/tensor.hpp"

namespace xflow::ops {

/// Validates the row-major [b][j] token ids both embedding kernels index
/// with: their count must be bn * jn and every id must lie in [0, vocab).
/// Throws InvalidArgument naming the first bad id, its [b][j] position and
/// the vocab size.
inline void CheckTokenIds(const std::vector<std::int32_t>& tokens,
                          std::int64_t bn, std::int64_t jn,
                          std::int64_t vocab) {
  require(static_cast<std::int64_t>(tokens.size()) == bn * jn,
          "token count must equal batch * sequence length");
  for (std::size_t e = 0; e < tokens.size(); ++e) {
    const std::int64_t id = tokens[e];
    if (id >= 0 && id < vocab) continue;
    const auto pos = static_cast<std::int64_t>(e);
    require(false, StrFormat("token id %lld at [b=%lld][j=%lld] is outside "
                             "the vocabulary [0, %lld)",
                             static_cast<long long>(id),
                             static_cast<long long>(pos / jn),
                             static_cast<long long>(pos % jn),
                             static_cast<long long>(vocab)));
  }
}

/// x[i,b,j] = token_table[tokens[b,j], i] + pos_table[j, i], summed in
/// fp32. `tokens` is row-major [b][j]; ids must lie in [0, vocab).
template <typename T>
void EmbeddingForwardKernel(const Tensor<T>& token_table,
                            const Tensor<T>& pos_table,
                            const std::vector<std::int32_t>& tokens,
                            Tensor<T>& x) {
  const std::int64_t bn = x.extent('b');
  const std::int64_t jn = x.extent('j');
  const std::int64_t in = x.extent('i');
  CheckTokenIds(tokens, bn, jn, token_table.extent('v'));
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

/// Scatter-add table gradients with fp32 accumulation; overwrites both
/// gradient tensors. `tokens` is row-major [b][j]; ids must lie in
/// [0, vocab).
template <typename T>
void EmbeddingBackwardKernel(const Tensor<T>& d_x,
                             const std::vector<std::int32_t>& tokens,
                             Tensor<T>& d_token_table, Tensor<T>& d_pos_table) {
  const std::int64_t bn = d_x.extent('b');
  const std::int64_t jn = d_x.extent('j');
  const std::int64_t in = d_x.extent('i');
  CheckTokenIds(tokens, bn, jn, d_token_table.extent('v'));
  std::vector<float> acc_tok(static_cast<std::size_t>(d_token_table.size()),
                             0.0f);
  std::vector<float> acc_pos(static_cast<std::size_t>(d_pos_table.size()),
                             0.0f);
  for (std::int64_t b = 0; b < bn; ++b) {
    for (std::int64_t j = 0; j < jn; ++j) {
      const auto id = tokens[static_cast<std::size_t>(b * jn + j)];
      for (std::int64_t i = 0; i < in; ++i) {
        const float g = float(d_x.at({{'i', i}, {'b', b}, {'j', j}}));
        acc_tok[static_cast<std::size_t>(
            d_token_table.OffsetOf(std::array{std::pair{'v', std::int64_t(id)},
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

/// Mean-squared error over all elements: fills d_y = 2 (y - target) / N
/// and returns the scalar loss (accumulated in double). Elements pair by
/// memory position, so `target` and `d_y` must have `y`'s shape -- dim
/// order included; throws InvalidArgument naming both shapes otherwise.
template <typename T>
double MseLossKernel(const Tensor<T>& y, const Tensor<T>& target,
                     Tensor<T>& d_y) {
  auto require_y_shape = [&](const char* what, const Shape& s) {
    if (s == y.shape()) return;
    require(false,
            StrFormat("MSE loss %s %s does not have y's shape %s", what,
                      ToString(s).c_str(), ToString(y.shape()).c_str()));
  };
  require_y_shape("target", target.shape());
  require_y_shape("d_y", d_y.shape());
  const double n = static_cast<double>(y.size());
  double loss = 0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    const float diff = float(y.data()[i]) - float(target.data()[i]);
    loss += static_cast<double>(diff) * diff;
    d_y.data()[i] = T(2.0f * diff / static_cast<float>(n));
  }
  return loss / n;
}

}  // namespace xflow::ops
