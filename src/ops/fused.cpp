#include "ops/fused.hpp"

#include <vector>

#include "ops/detail.hpp"

namespace xflow::ops {

using detail::Dot;
using detail::ForEachMaskChunk;
using detail::ForEachRow;
using detail::ForEachRowReduce;
using detail::In;
using detail::KeepOrZero;
using detail::LoopOverOutput;
using detail::LoopWithInnermost;
using detail::Off;
using detail::Out;
using detail::Pass;
using detail::RowMoments;
using detail::RowNormDots;
using detail::RowNormStats;

template <typename T>
void BiasReluDropout(const Tensor<T>& x, const Tensor<T>& bias,
                     const DropoutMask& mask, Tensor<T>& relu_saved,
                     Tensor<T>& y, Tensor<T>& mask_out) {
  const auto ld = LoopOverOutput(y.shape());
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto bv = View<const T, 4>::Bind(bias, ld.names);
  auto rv = View<T, 4>::Bind(relu_saved, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  auto mv = View<T, 4>::Bind(mask_out, ld.names);
  const auto canon = CanonicalStrides(y.shape(), ld.names);
  const float scale = mask.Scale();
  const std::int64_t n = ld.extents[3];
  // The bias may broadcast along the innermost dim (stride 0; e.g. the FFN
  // "ubj" layout with the bias over u), so it keeps a strided accessor.
  ForEachRow(
      ld,
      [&, n, scale](std::int64_t a, std::int64_t b, std::int64_t c,
                    const auto& xr, const auto& br, const auto& rr,
                    const auto& yr, const auto& mr) {
        ForEachMaskChunk(
            mask, Dot(canon, a, b, c, 0), canon[3], n,
            [&](std::int64_t d0, std::int64_t len, const std::uint8_t* keep) {
              XFLOW_SIMD
              for (std::int64_t t = 0; t < len; ++t) {
                const std::int64_t d = d0 + t;
                float v = float(xr[d]) + float(br[d]);
                v = v > 0.0f ? v : 0.0f;
                // ReLU is saved in fp16, so the backward pass sees the
                // rounded value: recompute the dropout from that rounded
                // number (read back from the row), exactly as the
                // separate-kernel pipeline would.
                rr[d] = T(v);
                yr[d] = T(KeepOrZero(keep[t], float(rr[d]) * scale));
                mr[d] = T(keep[t] ? 1.0f : 0.0f);
              }
            });
      },
      In{xv}, Pass{bv}, Out{rv}, Out{yv}, Out{mv});
}

template <typename T>
void BiasDropoutResidualLayerNorm(const Tensor<T>& x, const Tensor<T>& bias,
                                  const Tensor<T>& residual_in,
                                  const DropoutMask& mask,
                                  const Tensor<T>& ln_gamma,
                                  const Tensor<T>& ln_beta, char norm_dim,
                                  float eps, Tensor<T>& resid_saved,
                                  Tensor<T>& mask_out, Tensor<T>& y,
                                  TensorF& ln_mean, TensorF& ln_rstd) {
  // Loop with norm_dim innermost so the reduction-then-map structure of the
  // paper's two-loop fused kernels applies directly.
  const auto ld = LoopWithInnermost(y.shape(), norm_dim);
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto bv = View<const T, 4>::Bind(bias, ld.names);
  auto resinv = View<const T, 4>::Bind(residual_in, ld.names);
  auto gv = View<const T, 4>::Bind(ln_gamma, ld.names);
  auto betav = View<const T, 4>::Bind(ln_beta, ld.names);
  auto resv = View<T, 4>::Bind(resid_saved, ld.names);
  auto mv = View<T, 4>::Bind(mask_out, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  auto meanv = View<float, 4>::Bind(ln_mean, ld.names);
  auto rstdv = View<float, 4>::Bind(ln_rstd, ld.names);
  const auto canon = CanonicalStrides(y.shape(), ld.names);
  const float scale = mask.Scale();
  const std::int64_t n = ld.extents[3];
  const float inv_n = 1.0f / static_cast<float>(n);
  ForEachRow(
      ld,
      [&, n, scale, eps, inv_n](std::int64_t a, std::int64_t b,
                                std::int64_t c, const auto& xr,
                                const auto& br, const auto& resinr,
                                const auto& gr, const auto& betar,
                                const auto& resr, const auto& mr,
                                const auto& yr) {
        // Loop 1: bias + dropout + residual.
        ForEachMaskChunk(
            mask, Dot(canon, a, b, c, 0), canon[3], n,
            [&](std::int64_t k0, std::int64_t len, const std::uint8_t* keep) {
              XFLOW_SIMD
              for (std::int64_t t = 0; t < len; ++t) {
                const std::int64_t k = k0 + t;
                // Match the unfused pipeline bit-for-bit: every interim
                // that the separate-kernel pipeline would write to memory
                // (biased value, dropout output) is rounded to T at the
                // same point here.
                const float biased = float(T(float(xr[k]) + float(br[k])));
                const float dropped =
                    float(T(KeepOrZero(keep[t], biased * scale)));
                resr[k] = T(dropped + float(resinr[k]));
                mr[k] = T(keep[t] ? 1.0f : 0.0f);
              }
            });
        // Moments over the saved residual row -- through the same helper
        // LayerNormForward uses, so fused mean/rstd match the unfused
        // pipeline bitwise.
        float sum = 0, sum_sq = 0;
        RowMoments(resr, n, &sum, &sum_sq);
        float mu = 0, rs = 0;
        RowNormStats(sum, sum_sq, inv_n, eps, &mu, &rs);
        meanv.ptr[Off(meanv, a, b, c, 0)] = mu;
        rstdv.ptr[Off(rstdv, a, b, c, 0)] = rs;
        // Loop 2: apply the normalization.
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          yr[k] =
              T((float(resr[k]) - mu) * rs * float(gr[k]) + float(betar[k]));
        }
      },
      In{xv}, In{bv}, In{resinv}, In{gv}, In{betav}, Out{resv}, Out{mv},
      Out{yv});
}

template <typename T>
void LayerNormDropoutBackward(const Tensor<T>& dy, const Tensor<T>& ln_gamma,
                              const Tensor<T>& x_saved, const TensorF& mean,
                              const TensorF& rstd, const Tensor<T>& drop_mask,
                              char norm_dim, float keep_scale,
                              Tensor<T>& d_resid, Tensor<T>& d_out) {
  const auto ld = LoopWithInnermost(d_out.shape(), norm_dim);
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto gv = View<const T, 4>::Bind(ln_gamma, ld.names);
  auto xv = View<const T, 4>::Bind(x_saved, ld.names);
  auto meanv = View<const float, 4>::Bind(mean, ld.names);
  auto rstdv = View<const float, 4>::Bind(rstd, ld.names);
  auto mv = View<const T, 4>::Bind(drop_mask, ld.names);
  auto drv = View<T, 4>::Bind(d_resid, ld.names);
  auto dov = View<T, 4>::Bind(d_out, ld.names);
  const std::int64_t n = ld.extents[3];
  const float inv_n = 1.0f / static_cast<float>(n);
  ForEachRow(
      ld,
      [&, n, keep_scale, inv_n](std::int64_t a, std::int64_t b,
                                std::int64_t c, const auto& dyr,
                                const auto& gr, const auto& xr,
                                const auto& mr, const auto& drr,
                                const auto& dor) {
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
          const T dr = T(rs * (g - mean_g - xhat * mean_gx));
          drr[k] = dr;
          dor[k] = T(float(dr) * float(mr[k]) * keep_scale);
        }
      },
      In{dyv}, In{gv}, In{xv}, In{mv}, Out{drv}, Out{dov});
}

template <typename T>
void BiasDropoutReluBiasBackward(const Tensor<T>& dy_hi,
                                 const Tensor<T>& dy_lo,
                                 const Tensor<T>& drop_mask,
                                 const Tensor<T>& relu_saved, float keep_scale,
                                 Tensor<T>& d_bias_hi, Tensor<T>& d_x_lo,
                                 Tensor<T>& d_bias_lo) {
  // Stream 1: bias gradient of the upper (embedding-width) tensor.
  {
    std::vector<float> acc(static_cast<std::size_t>(d_bias_hi.size()), 0.0f);
    const auto ld = LoopOverOutput(dy_hi.shape());
    auto dyv = View<const T, 4>::Bind(dy_hi, ld.names);
    auto dbv = View<T, 4>::Bind(d_bias_hi, ld.names);
    detail::ReduceBiasRows(ld, dyv, dbv, acc);
    for (std::int64_t i = 0; i < d_bias_hi.size(); ++i) {
      d_bias_hi.data()[i] = T(acc[static_cast<std::size_t>(i)]);
    }
  }
  // Stream 2: dropout dX -> relu dX -> bias dW, without storing interims.
  // The dX writes are row-exclusive, so they ride along with the reduction:
  // each row maps its dX, then folds it like ReduceBiasRows.
  {
    std::vector<float> acc(static_cast<std::size_t>(d_bias_lo.size()), 0.0f);
    const auto ld = LoopOverOutput(d_x_lo.shape());
    auto dyv = View<const T, 4>::Bind(dy_lo, ld.names);
    auto mv = View<const T, 4>::Bind(drop_mask, ld.names);
    auto rv = View<const T, 4>::Bind(relu_saved, ld.names);
    auto dxv = View<T, 4>::Bind(d_x_lo, ld.names);
    auto dbv = View<T, 4>::Bind(d_bias_lo, ld.names);
    const std::int64_t n = ld.extents[3];
    ForEachRowReduce(
        ld, acc,
        [&, n, keep_scale](std::int64_t a, std::int64_t b, std::int64_t c,
                           float* part, const auto& dyr, const auto& mr,
                           const auto& rr, const auto& dxr) {
          XFLOW_SIMD
          for (std::int64_t d = 0; d < n; ++d) {
            // Match unfused pipeline: dropout dX result is rounded to T
            // before the ReLU gate, as it would be when written to memory.
            const float dd =
                float(T(float(dyr[d]) * float(mr[d]) * keep_scale));
            const bool active = float(rr[d]) > 0.0f;
            dxr[d] = active ? T(dd) : T(0.0f);
          }
          // The bias fold reads the dX row back, as BiasBackwardDW would.
          detail::FoldBiasRow(dxr.p, n, part + Off(dbv, a, b, c, 0),
                              dbv.stride[3]);
        },
        In{dyv}, In{mv}, In{rv}, Out{dxv});
    for (std::int64_t i = 0; i < d_bias_lo.size(); ++i) {
      d_bias_lo.data()[i] = T(acc[static_cast<std::size_t>(i)]);
    }
  }
}

template <typename T>
void ResidualLayerNormDwBackward(const Tensor<T>& da, const Tensor<T>& db,
                                 const Tensor<T>& x_saved, const TensorF& mean,
                                 const TensorF& rstd, char norm_dim,
                                 Tensor<T>& d_sum, Tensor<T>& dgamma,
                                 Tensor<T>& dbeta) {
  require(dgamma.shape().names() == std::string(1, norm_dim),
          "dgamma is 1-D over the normalized dimension");
  const auto ld = LoopWithInnermost(d_sum.shape(), norm_dim);
  auto dav = View<const T, 4>::Bind(da, ld.names);
  auto dbv = View<const T, 4>::Bind(db, ld.names);
  auto xv = View<const T, 4>::Bind(x_saved, ld.names);
  auto meanv = View<const float, 4>::Bind(mean, ld.names);
  auto rstdv = View<const float, 4>::Bind(rstd, ld.names);
  auto dsv = View<T, 4>::Bind(d_sum, ld.names);
  const std::int64_t n = ld.extents[3];
  // Accumulator layout: [0, n) = dgamma, [n, 2n) = dbeta -- the same
  // combine tree as LayerNormBackwardDW, which this kernel must match
  // exactly. The d_sum writes are row-exclusive.
  std::vector<float> acc(static_cast<std::size_t>(2 * n), 0.0f);
  ForEachRowReduce(
      ld, acc,
      [&, n](std::int64_t a, std::int64_t b, std::int64_t c, float* part,
             const auto& dar, const auto& dbr, const auto& xr,
             const auto& dsr) {
        const float mu = meanv.ptr[Off(meanv, a, b, c, 0)];
        const float rs = rstdv.ptr[Off(rstdv, a, b, c, 0)];
        XFLOW_SIMD
        for (std::int64_t k = 0; k < n; ++k) {
          const T ds = T(float(dar[k]) + float(dbr[k]));
          dsr[k] = ds;
          const float xhat = (float(xr[k]) - mu) * rs;
          part[k] += float(ds) * xhat;
          part[n + k] += float(ds);
        }
      },
      In{dav}, In{dbv}, In{xv}, Out{dsv});
  for (std::int64_t k = 0; k < n; ++k) {
    dgamma.data()[k] = T(acc[static_cast<std::size_t>(k)]);
    dbeta.data()[k] = T(acc[static_cast<std::size_t>(n + k)]);
  }
}

#define XFLOW_INSTANTIATE_FUSED(T)                                            \
  template void BiasReluDropout<T>(const Tensor<T>&, const Tensor<T>&,        \
                                   const DropoutMask&, Tensor<T>&,            \
                                   Tensor<T>&, Tensor<T>&);                   \
  template void BiasDropoutResidualLayerNorm<T>(                              \
      const Tensor<T>&, const Tensor<T>&, const Tensor<T>&,                   \
      const DropoutMask&, const Tensor<T>&, const Tensor<T>&, char, float,    \
      Tensor<T>&, Tensor<T>&, Tensor<T>&, TensorF&, TensorF&);                \
  template void LayerNormDropoutBackward<T>(                                  \
      const Tensor<T>&, const Tensor<T>&, const Tensor<T>&, const TensorF&,   \
      const TensorF&, const Tensor<T>&, char, float, Tensor<T>&, Tensor<T>&); \
  template void BiasDropoutReluBiasBackward<T>(                               \
      const Tensor<T>&, const Tensor<T>&, const Tensor<T>&, const Tensor<T>&, \
      float, Tensor<T>&, Tensor<T>&, Tensor<T>&);                             \
  template void ResidualLayerNormDwBackward<T>(                               \
      const Tensor<T>&, const Tensor<T>&, const Tensor<T>&, const TensorF&,   \
      const TensorF&, char, Tensor<T>&, Tensor<T>&, Tensor<T>&)

XFLOW_INSTANTIATE_FUSED(Half);
XFLOW_INSTANTIATE_FUSED(float);
#undef XFLOW_INSTANTIATE_FUSED

}  // namespace xflow::ops
