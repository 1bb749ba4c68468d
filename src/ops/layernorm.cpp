#include "ops/layernorm.hpp"

#include <vector>

#include "ops/detail.hpp"

namespace xflow::ops {

using detail::ForEachRow;
using detail::ForEachRowReduce;
using detail::In;
using detail::LoopWithInnermost;
using detail::Off;
using detail::Out;
using detail::RowMoments;
using detail::RowNormDots;
using detail::RowNormStats;

template <typename T>
void LayerNormForward(const Tensor<T>& x, const Tensor<T>& gamma,
                      const Tensor<T>& beta, char norm_dim, float eps,
                      Tensor<T>& y, TensorF& mean, TensorF& rstd) {
  const auto ld = LoopWithInnermost(y.shape(), norm_dim);
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto gv = View<const T, 4>::Bind(gamma, ld.names);
  auto bv = View<const T, 4>::Bind(beta, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  auto meanv = View<float, 4>::Bind(mean, ld.names);
  auto rstdv = View<float, 4>::Bind(rstd, ld.names);
  const std::int64_t n = ld.extents[3];
  const float inv_n = 1.0f / static_cast<float>(n);
  ForEachRow(
      ld,
      [&, n, eps, inv_n](std::int64_t a, std::int64_t b, std::int64_t c,
                         const auto& xr, const auto& gr, const auto& br,
                         const auto& yr) {
        float sum = 0, sum_sq = 0;
        RowMoments(xr, n, &sum, &sum_sq);
        float mu = 0, rs = 0;
        RowNormStats(sum, sum_sq, inv_n, eps, &mu, &rs);
        meanv.ptr[Off(meanv, a, b, c, 0)] = mu;
        rstdv.ptr[Off(rstdv, a, b, c, 0)] = rs;
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          yr[k] = T((float(xr[k]) - mu) * rs * float(gr[k]) + float(br[k]));
        }
      },
      In{xv}, In{gv}, In{bv}, Out{yv});
}

template <typename T>
void LayerNormBackwardDX(const Tensor<T>& dy, const Tensor<T>& gamma,
                         const Tensor<T>& x, const TensorF& mean,
                         const TensorF& rstd, char norm_dim, Tensor<T>& dx) {
  const auto ld = LoopWithInnermost(dx.shape(), norm_dim);
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto gv = View<const T, 4>::Bind(gamma, ld.names);
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto meanv = View<const float, 4>::Bind(mean, ld.names);
  auto rstdv = View<const float, 4>::Bind(rstd, ld.names);
  auto dxv = View<T, 4>::Bind(dx, ld.names);
  const std::int64_t n = ld.extents[3];
  const float inv_n = 1.0f / static_cast<float>(n);
  ForEachRow(
      ld,
      [&, n, inv_n](std::int64_t a, std::int64_t b, std::int64_t c,
                    const auto& dyr, const auto& gr, const auto& xr,
                    const auto& dxr) {
        const float mu = meanv.ptr[Off(meanv, a, b, c, 0)];
        const float rs = rstdv.ptr[Off(rstdv, a, b, c, 0)];
        float sum_g = 0, sum_gx = 0;
        RowNormDots(dyr, gr, xr, mu, rs, n, &sum_g, &sum_gx);
        const float mean_g = sum_g * inv_n;
        const float mean_gx = sum_gx * inv_n;
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          const float g = float(dyr[k]) * float(gr[k]);
          const float xhat = (float(xr[k]) - mu) * rs;
          dxr[k] = T(rs * (g - mean_g - xhat * mean_gx));
        }
      },
      In{dyv}, In{gv}, In{xv}, Out{dxv});
}

template <typename T>
void LayerNormBackwardDW(const Tensor<T>& dy, const Tensor<T>& x,
                         const TensorF& mean, const TensorF& rstd,
                         char norm_dim, Tensor<T>& dgamma, Tensor<T>& dbeta) {
  require(dgamma.shape().names() == std::string(1, norm_dim) &&
              dbeta.shape().names() == std::string(1, norm_dim),
          "parameter gradients are 1-D over the normalized dimension");
  const auto ld = LoopWithInnermost(dy.shape(), norm_dim);
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto meanv = View<const float, 4>::Bind(mean, ld.names);
  auto rstdv = View<const float, 4>::Bind(rstd, ld.names);
  const std::int64_t n = ld.extents[3];
  // Accumulator layout: [0, n) = dgamma, [n, 2n) = dbeta.
  std::vector<float> acc(static_cast<std::size_t>(2 * n), 0.0f);
  ForEachRowReduce(
      ld, acc,
      [&, n](std::int64_t a, std::int64_t b, std::int64_t c, float* part,
             const auto& dyr, const auto& xr) {
        const float mu = meanv.ptr[Off(meanv, a, b, c, 0)];
        const float rs = rstdv.ptr[Off(rstdv, a, b, c, 0)];
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          const float d = float(dyr[k]);
          const float xhat = (float(xr[k]) - mu) * rs;
          part[k] += d * xhat;
          part[n + k] += d;
        }
      },
      In{dyv}, In{xv});
  for (std::int64_t k = 0; k < n; ++k) {
    dgamma.data()[k] = T(acc[static_cast<std::size_t>(k)]);
    dbeta.data()[k] = T(acc[static_cast<std::size_t>(n + k)]);
  }
}

#define XFLOW_INSTANTIATE_LAYERNORM(T)                                        \
  template void LayerNormForward<T>(const Tensor<T>&, const Tensor<T>&,       \
                                    const Tensor<T>&, char, float,            \
                                    Tensor<T>&, TensorF&, TensorF&);          \
  template void LayerNormBackwardDX<T>(const Tensor<T>&, const Tensor<T>&,    \
                                       const Tensor<T>&, const TensorF&,      \
                                       const TensorF&, char, Tensor<T>&);     \
  template void LayerNormBackwardDW<T>(const Tensor<T>&, const Tensor<T>&,    \
                                       const TensorF&, const TensorF&, char,  \
                                       Tensor<T>&, Tensor<T>&)

XFLOW_INSTANTIATE_LAYERNORM(Half);
XFLOW_INSTANTIATE_LAYERNORM(float);
#undef XFLOW_INSTANTIATE_LAYERNORM

}  // namespace xflow::ops
