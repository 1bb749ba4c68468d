// Embedding lookup and MSE-loss kernels, shared between the hand-wired
// transformer layers (transformer/embedding.cpp, transformer/training.cpp)
// and the graph executor's kEmbed/kEmbedDW/kMseLoss dispatch. One loop nest
// per operation keeps the two paths bitwise identical by construction.
//
// Each kernel fixes its floating-point order, whatever the layouts and the
// thread count:
//  * forward: each x element is T(float(token) + float(position));
//  * backward: each table element starts from +0, receives its fp32
//    additions in ascending (b, j) order and is rounded once;
//  * loss: d_y element by element; the loss is one serial double sum over
//    the elements in memory order.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "ops/detail.hpp"
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

/// Validates the embedding tables against x (or d_x): the token table is
/// [v, i] and the positional table [j, i], in any dim order, with x's
/// extents. Throws InvalidArgument naming the three shapes otherwise.
inline void CheckTables(const Shape& tok, const Shape& pos, const Shape& x) {
  const std::int64_t in = x.extent('i');
  require(tok.rank() == 2 && tok.has('v') && tok.has('i') &&
              tok.extent('i') == in && pos.rank() == 2 && pos.has('j') &&
              pos.has('i') && pos.extent('j') == x.extent('j') &&
              pos.extent('i') == in,
          [&] {
            return StrFormat(
                "embedding tables %s and %s must be [v,i] and [j,i] over "
                "x %s",
                ToString(tok).c_str(), ToString(pos).c_str(),
                ToString(x).c_str());
          });
}

/// x[i,b,j] = token_table[tokens[b,j], i] + pos_table[j, i], summed in
/// fp32 and rounded once. `tokens` is row-major [b][j]; ids must lie in
/// [0, vocab).
template <typename T>
void EmbeddingForwardKernel(const Tensor<T>& token_table,
                            const Tensor<T>& pos_table,
                            const std::vector<std::int32_t>& tokens,
                            Tensor<T>& x) {
  CheckTables(token_table.shape(), pos_table.shape(), x.shape());
  const std::int64_t jn = x.extent('j');
  CheckTokenIds(tokens, x.extent('b'), jn, token_table.extent('v'));
  // Rows of x split over the pool like any element-wise kernel. Both
  // tables are viewed over x's dims (a dim a table lacks reads at stride
  // 0); the token table's row comes from the id, read through a [b][j]
  // view of the ids.
  const auto ld = detail::LoopOverOutput(x.shape());
  const auto xv = View<T, 4>::Bind(x, ld.names);
  const auto tv = View<const T, 4>::Bind(token_table, ld.names);
  const auto pv = View<const T, 4>::Bind(pos_table, ld.names);
  std::array<std::int64_t, 4> idv{};
  for (std::size_t s = 0; s < 4; ++s) {
    idv[s] = ld.names[s] == 'b' ? jn : ld.names[s] == 'j' ? 1 : 0;
  }
  const std::int64_t vs = token_table.stride('v');
  const std::int64_t n = ld.extents[3];
  detail::ForEachRow(
      ld,
      [&, n, vs](std::int64_t a, std::int64_t b, std::int64_t c,
                 const auto& xr) {
        const T* tok = tv.ptr + detail::Off(tv, a, b, c, 0);
        const T* pos = pv.ptr + detail::Off(pv, a, b, c, 0);
        const std::int32_t* id = tokens.data() + detail::Dot(idv, a, b, c, 0);
        const std::int64_t ts = tv.stride[3];
        const std::int64_t ps = pv.stride[3];
        const std::int64_t is = idv[3];
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          xr[d] = T(float(tok[id[d * is] * vs + d * ts]) +
                    float(pos[d * ps]));
        }
      },
      detail::Out{xv});
}

/// Scatter-add table gradients with fp32 accumulation; overwrites both
/// gradient tables, whose shapes CheckTables admits. Each table element
/// receives its additions in ascending (b, j) order, starting from +0, and
/// is rounded once. `tokens` is row-major [b][j]; ids must lie in
/// [0, vocab).
template <typename T>
void EmbeddingBackwardKernel(const Tensor<T>& d_x,
                             const std::vector<std::int32_t>& tokens,
                             Tensor<T>& d_token_table, Tensor<T>& d_pos_table) {
  const Shape& ts = d_token_table.shape();
  const Shape& ps = d_pos_table.shape();
  CheckTables(ts, ps, d_x.shape());
  const std::int64_t bn = d_x.extent('b');
  const std::int64_t jn = d_x.extent('j');
  const std::int64_t in = d_x.extent('i');
  CheckTokenIds(tokens, bn, jn, ts.extent('v'));
  const std::int64_t vn = ts.extent('v');
  const std::int64_t xi = d_x.stride('i');
  const std::int64_t xb = d_x.stride('b');
  const std::int64_t xj = d_x.stride('j');
  const std::int64_t tv = ts.stride('v');
  const std::int64_t ti = ts.stride('i');
  const std::int64_t pj = ps.stride('j');
  const std::int64_t pi = ps.stride('i');
  // Each task owns whole cache lines' worth of 'i' columns (of T), so the
  // tables' [v,i] / [j,i] rows are written without false sharing, and sums
  // a column block of every table row in per-thread scratch: one kCols-wide
  // fp32 row per token-table row, then one per positional row.
  constexpr std::int64_t kCols = 64 / static_cast<std::int64_t>(sizeof(T));
  const std::int64_t rows = vn + jn;
  xflow::ParallelFor((in + kCols - 1) / kCols, 1, [&](std::int64_t blk) {
    const std::int64_t i0 = blk * kCols;
    const std::int64_t w = std::min(kCols, in - i0);
    auto* acc = static_cast<float*>(
        ThreadScratch(static_cast<std::size_t>(rows * kCols) * sizeof(float)));
    std::fill_n(acc, rows * kCols, 0.0f);
    float* acc_pos = acc + vn * kCols;
    for (std::int64_t b = 0; b < bn; ++b) {
      for (std::int64_t j = 0; j < jn; ++j) {
        const T* g = d_x.data() + i0 * xi + b * xb + j * xj;
        float* at = acc + tokens[static_cast<std::size_t>(b * jn + j)] * kCols;
        float* ap = acc_pos + j * kCols;
        XFLOW_SIMD
        for (std::int64_t c = 0; c < w; ++c) {
          const float v = float(g[c * xi]);
          at[c] += v;
          ap[c] += v;
        }
      }
    }
    auto store = [&](T* table, std::int64_t row_stride, std::int64_t col_stride,
                     const float* src, std::int64_t nrows) {
      for (std::int64_t r = 0; r < nrows; ++r) {
        T* dst = table + r * row_stride + i0 * col_stride;
        XFLOW_SIMD
        for (std::int64_t c = 0; c < w; ++c) {
          dst[c * col_stride] = T(src[r * kCols + c]);
        }
      }
    };
    store(d_token_table.data(), tv, ti, acc, vn);
    store(d_pos_table.data(), pj, pi, acc_pos, jn);
  });
}

/// Mean-squared error over all elements: fills d_y = 2 (y - target) / N
/// and returns the scalar loss, one double sum in memory order. Elements
/// pair by memory position, so `target` and `d_y` must have `y`'s shape --
/// dim order included; throws InvalidArgument naming both shapes otherwise.
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
  const float nf = static_cast<float>(n);
  // d_y in vectorized chunks; the double sum stays one serial chain.
  constexpr std::int64_t kChunk = 512;
  alignas(64) float diff[kChunk] = {};
  double loss = 0;
  for (std::int64_t e0 = 0; e0 < y.size(); e0 += kChunk) {
    const std::int64_t len = std::min(kChunk, y.size() - e0);
    const T* yp = y.data() + e0;
    const T* tp = target.data() + e0;
    T* dp = d_y.data() + e0;
    XFLOW_SIMD
    for (std::int64_t t = 0; t < len; ++t) {
      const float d = float(yp[t]) - float(tp[t]);
      diff[t] = d;
      dp[t] = T(2.0f * d / nf);
    }
    for (std::int64_t t = 0; t < len; ++t) {
      loss += static_cast<double>(diff[t]) * diff[t];
    }
  }
  return loss / n;
}

}  // namespace xflow::ops
