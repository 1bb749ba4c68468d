#include "ops/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ops/detail.hpp"

namespace xflow::ops {

using detail::Dot;
using detail::ForEachMaskChunk;
using detail::ForEachRow;
using detail::In;
using detail::KeepOrZero;
using detail::LoopWithInnermost;
using detail::Out;
using detail::RowDot;
using detail::RowDropoutDot;
using detail::RowMax;

namespace {

/// e[k] = exp(scale * r[k] - max_v) for k < n, returning their sum in
/// ascending k. The forward kernels compute each exp once and normalize
/// from `e` (a vectorizable loop) instead of calling exp a second time:
/// the same values, half the exp calls. `e` is per-thread storage, not
/// ThreadScratch, which the staged path holds while the row body runs.
template <typename R>
float ExpRow(const R& r, std::int64_t n, float scale, float max_v,
             float*& e) {
  thread_local std::vector<float> row;
  if (static_cast<std::int64_t>(row.size()) < n) {
    row.resize(static_cast<std::size_t>(n));
  }
  e = row.data();
  float sum = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    e[k] = std::exp(scale * float(r[k]) - max_v);
    sum += e[k];
  }
  return sum;
}

}  // namespace

template <typename T>
void SoftmaxForward(const Tensor<T>& x, char reduce_dim, Tensor<T>& y) {
  const auto ld = LoopWithInnermost(y.shape(), reduce_dim);
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& xr,
          const auto& yr) {
        const float max_v = RowMax(xr, n, 1.0f);
        float* e = nullptr;
        const float inv = 1.0f / ExpRow(xr, n, 1.0f, max_v, e);
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) yr[k] = T(e[k] * inv);
      },
      In{xv}, Out{yv});
}

template <typename T>
void ScaledSoftmaxForward(const Tensor<T>& beta, char reduce_dim, float scale,
                          const DropoutMask& mask, Tensor<T>& alpha,
                          Tensor<T>& mask_out, Tensor<T>& softmax_saved) {
  const auto ld = LoopWithInnermost(alpha.shape(), reduce_dim);
  auto bv = View<const T, 4>::Bind(beta, ld.names);
  auto av = View<T, 4>::Bind(alpha, ld.names);
  auto mv = View<T, 4>::Bind(mask_out, ld.names);
  auto sv = View<T, 4>::Bind(softmax_saved, ld.names);
  const auto canon = CanonicalStrides(alpha.shape(), ld.names);
  const float keep_scale = mask.Scale();
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [&, n, scale, keep_scale](std::int64_t a, std::int64_t b,
                                std::int64_t c, const auto& br,
                                const auto& ar, const auto& mr,
                                const auto& sr) {
        const float max_v = RowMax(br, n, scale);
        float* e = nullptr;
        const float inv = 1.0f / ExpRow(br, n, scale, max_v, e);
        ForEachMaskChunk(
            mask, Dot(canon, a, b, c, 0), canon[3], n,
            [&](std::int64_t k0, std::int64_t len, const std::uint8_t* keep) {
              XFLOW_SIMD
              for (std::int64_t t = 0; t < len; ++t) {
                const std::int64_t k = k0 + t;
                const float soft = e[k] * inv;
                sr[k] = T(soft);
                mr[k] = T(keep[t] ? 1.0f : 0.0f);
                ar[k] = T(KeepOrZero(keep[t], soft * keep_scale));
              }
            });
      },
      In{bv}, Out{av}, Out{mv}, Out{sv});
}

template <typename T>
void CausalScaledSoftmaxForward(const Tensor<T>& beta, char reduce_dim,
                                char query_dim, float scale,
                                const DropoutMask& mask, Tensor<T>& alpha,
                                Tensor<T>& mask_out,
                                Tensor<T>& softmax_saved) {
  const auto ld = LoopWithInnermost(alpha.shape(), reduce_dim);
  // Which of the three outer loop slots runs over query positions?
  int query_slot = -1;
  for (int s = 0; s < 3; ++s) {
    if (ld.names[static_cast<std::size_t>(s)] == query_dim) query_slot = s;
  }
  require(query_slot >= 0, "tensor lacks the query dimension");

  auto bv = View<const T, 4>::Bind(beta, ld.names);
  auto av = View<T, 4>::Bind(alpha, ld.names);
  auto mv = View<T, 4>::Bind(mask_out, ld.names);
  auto sv = View<T, 4>::Bind(softmax_saved, ld.names);
  const auto canon = CanonicalStrides(alpha.shape(), ld.names);
  const float keep_scale = mask.Scale();
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [&, n, scale, keep_scale, query_slot](
          std::int64_t a, std::int64_t b, std::int64_t c, const auto& br,
          const auto& ar, const auto& mr, const auto& sr) {
        const std::int64_t q = query_slot == 0 ? a : query_slot == 1 ? b : c;
        const std::int64_t visible = std::min(q + 1, n);
        const float max_v = RowMax(br, visible, scale);
        float* e = nullptr;
        const float inv = 1.0f / ExpRow(br, visible, scale, max_v, e);
        ForEachMaskChunk(
            mask, Dot(canon, a, b, c, 0), canon[3], n,
            [&](std::int64_t k0, std::int64_t len, const std::uint8_t* keep) {
              // Keys past the query (k >= visible) are masked out: soft
              // and alpha are +0 there, and e[k] is not read.
              const std::int64_t seen =
                  std::clamp(visible - k0, std::int64_t{0}, len);
              XFLOW_SIMD
              for (std::int64_t t = 0; t < seen; ++t) {
                const std::int64_t k = k0 + t;
                const float soft = e[k] * inv;
                sr[k] = T(soft);
                mr[k] = T(keep[t] ? 1.0f : 0.0f);
                ar[k] = T(KeepOrZero(keep[t], soft * keep_scale));
              }
              for (std::int64_t t = seen; t < len; ++t) {
                const std::int64_t k = k0 + t;
                sr[k] = T(0.0f);
                mr[k] = T(keep[t] ? 1.0f : 0.0f);
                ar[k] = T(0.0f);
              }
            });
      },
      In{bv}, Out{av}, Out{mv}, Out{sv});
}

template <typename T>
void SoftmaxBackwardDX(const Tensor<T>& dy, const Tensor<T>& y,
                       char reduce_dim, Tensor<T>& dx) {
  const auto ld = LoopWithInnermost(dx.shape(), reduce_dim);
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto yv = View<const T, 4>::Bind(y, ld.names);
  auto dxv = View<T, 4>::Bind(dx, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& dyr,
          const auto& yr, const auto& dxr) {
        const float inner = RowDot(dyr, yr, n);
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          dxr[k] = T(float(yr[k]) * (float(dyr[k]) - inner));
        }
      },
      In{dyv}, In{yv}, Out{dxv});
}

template <typename T>
void ScaledSoftmaxBackwardDX(const Tensor<T>& d_alpha, const Tensor<T>& mask,
                             const Tensor<T>& softmax_saved, char reduce_dim,
                             float scale, float keep_scale,
                             Tensor<T>& d_beta) {
  const auto ld = LoopWithInnermost(d_beta.shape(), reduce_dim);
  auto dav = View<const T, 4>::Bind(d_alpha, ld.names);
  auto mv = View<const T, 4>::Bind(mask, ld.names);
  auto sv = View<const T, 4>::Bind(softmax_saved, ld.names);
  auto dbv = View<T, 4>::Bind(d_beta, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n, scale, keep_scale](std::int64_t, std::int64_t, std::int64_t,
                             const auto& dar, const auto& mr, const auto& sr,
                             const auto& dbr) {
        // ds = d_alpha through dropout; inner = sum(ds * s).
        const float inner = RowDropoutDot(dar, mr, sr, keep_scale, n);
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          const float ds = float(dar[k]) * float(mr[k]) * keep_scale;
          const float s = float(sr[k]);
          dbr[k] = T(scale * s * (ds - inner));
        }
      },
      In{dav}, In{mv}, In{sv}, Out{dbv});
}

#define XFLOW_INSTANTIATE_SOFTMAX(T)                                          \
  template void SoftmaxForward<T>(const Tensor<T>&, char, Tensor<T>&);        \
  template void ScaledSoftmaxForward<T>(const Tensor<T>&, char, float,        \
                                        const DropoutMask&, Tensor<T>&,       \
                                        Tensor<T>&, Tensor<T>&);              \
  template void CausalScaledSoftmaxForward<T>(                                \
      const Tensor<T>&, char, char, float, const DropoutMask&, Tensor<T>&,    \
      Tensor<T>&, Tensor<T>&);                                                \
  template void SoftmaxBackwardDX<T>(const Tensor<T>&, const Tensor<T>&,      \
                                     char, Tensor<T>&);                       \
  template void ScaledSoftmaxBackwardDX<T>(const Tensor<T>&, const Tensor<T>&,\
                                           const Tensor<T>&, char, float,     \
                                           float, Tensor<T>&)

XFLOW_INSTANTIATE_SOFTMAX(Half);
XFLOW_INSTANTIATE_SOFTMAX(float);
#undef XFLOW_INSTANTIATE_SOFTMAX

}  // namespace xflow::ops
