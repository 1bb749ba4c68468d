#include "ops/elementwise.hpp"

#include <vector>

#include "ops/detail.hpp"

namespace xflow::ops {

using detail::Dot;
using detail::ForEachMaskChunk;
using detail::ForEachRow;
using detail::In;
using detail::KeepOrZero;
using detail::LoopOverOutput;
using detail::Out;
using detail::Pass;

template <typename T>
void BiasForward(const Tensor<T>& x, const Tensor<T>& bias, Tensor<T>& y) {
  const auto ld = LoopOverOutput(y.shape());
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto bv = View<const T, 4>::Bind(bias, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  const std::int64_t n = ld.extents[3];
  // The bias may broadcast along the innermost dim (stride 0), so it keeps
  // a strided accessor (Pass) and stays out of the unit-stride gating.
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& xr,
          const auto& br, const auto& yr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          yr[d] = T(float(xr[d]) + float(br[d]));
        }
      },
      In{xv}, Pass{bv}, Out{yv});
}

template <typename T>
void ReluForward(const Tensor<T>& x, Tensor<T>& y) {
  const auto ld = LoopOverOutput(y.shape());
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& xr,
          const auto& yr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          const float v = float(xr[d]);
          yr[d] = T(v > 0.0f ? v : 0.0f);
        }
      },
      In{xv}, Out{yv});
}

template <typename T>
void DropoutForward(const Tensor<T>& x, const DropoutMask& mask, Tensor<T>& y,
                    Tensor<T>& mask_out) {
  const auto ld = LoopOverOutput(y.shape());
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  auto mv = View<T, 4>::Bind(mask_out, ld.names);
  const auto canon = CanonicalStrides(y.shape(), ld.names);
  const float scale = mask.Scale();
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [&, n](std::int64_t a, std::int64_t b, std::int64_t c, const auto& xr,
             const auto& yr, const auto& mr) {
        ForEachMaskChunk(
            mask, Dot(canon, a, b, c, 0), canon[3], n,
            [&](std::int64_t d0, std::int64_t len, const std::uint8_t* keep) {
              XFLOW_SIMD
              for (std::int64_t t = 0; t < len; ++t) {
                const std::int64_t d = d0 + t;
                yr[d] = T(KeepOrZero(keep[t], float(xr[d]) * scale));
                mr[d] = T(keep[t] ? 1.0f : 0.0f);
              }
            });
      },
      In{xv}, Out{yv}, Out{mv});
}

template <typename T>
void ResidualForward(const Tensor<T>& a, const Tensor<T>& b, Tensor<T>& y) {
  const auto ld = LoopOverOutput(y.shape());
  auto av = View<const T, 4>::Bind(a, ld.names);
  auto bv = View<const T, 4>::Bind(b, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& ar,
          const auto& br, const auto& yr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          yr[d] = T(float(ar[d]) + float(br[d]));
        }
      },
      In{av}, In{bv}, Out{yv});
}

template <typename T>
void ScaleForward(const Tensor<T>& x, float alpha, Tensor<T>& y) {
  const auto ld = LoopOverOutput(y.shape());
  auto xv = View<const T, 4>::Bind(x, ld.names);
  auto yv = View<T, 4>::Bind(y, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n, alpha](std::int64_t, std::int64_t, std::int64_t, const auto& xr,
                 const auto& yr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          yr[d] = T(alpha * float(xr[d]));
        }
      },
      In{xv}, Out{yv});
}

template <typename T>
void BiasBackwardDW(const Tensor<T>& dy, Tensor<T>& db) {
  // Accumulate in fp32 scratch indexed by db's layout, then round once.
  std::vector<float> acc(static_cast<std::size_t>(db.size()), 0.0f);
  const auto ld = LoopOverOutput(dy.shape());
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto dbv = View<T, 4>::Bind(db, ld.names);  // stride 0 on reduced dims
  detail::ReduceBiasRows(ld, dyv, dbv, acc);
  for (std::int64_t i = 0; i < db.size(); ++i) {
    db.data()[i] = T(acc[static_cast<std::size_t>(i)]);
  }
}

template <typename T>
void ReluBackwardDX(const Tensor<T>& dy, const Tensor<T>& y, Tensor<T>& dx) {
  const auto ld = LoopOverOutput(dx.shape());
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto yv = View<const T, 4>::Bind(y, ld.names);
  auto dxv = View<T, 4>::Bind(dx, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n](std::int64_t, std::int64_t, std::int64_t, const auto& dyr,
          const auto& yr, const auto& dxr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          const bool active = float(yr[d]) > 0.0f;
          dxr[d] = active ? dyr[d] : T(0.0f);
        }
      },
      In{dyv}, In{yv}, Out{dxv});
}

template <typename T>
void DropoutBackwardDX(const Tensor<T>& dy, const Tensor<T>& mask,
                       float keep_scale, Tensor<T>& dx) {
  const auto ld = LoopOverOutput(dx.shape());
  auto dyv = View<const T, 4>::Bind(dy, ld.names);
  auto mv = View<const T, 4>::Bind(mask, ld.names);
  auto dxv = View<T, 4>::Bind(dx, ld.names);
  const std::int64_t n = ld.extents[3];
  ForEachRow(
      ld,
      [n, keep_scale](std::int64_t, std::int64_t, std::int64_t,
                      const auto& dyr, const auto& mr, const auto& dxr) {
        XFLOW_SIMD
        for (std::int64_t d = 0; d < n; ++d) {
          dxr[d] = T(float(dyr[d]) * float(mr[d]) * keep_scale);
        }
      },
      In{dyv}, In{mv}, Out{dxv});
}

#define XFLOW_INSTANTIATE_ELEMENTWISE(T)                                      \
  template void BiasForward<T>(const Tensor<T>&, const Tensor<T>&,            \
                               Tensor<T>&);                                   \
  template void ReluForward<T>(const Tensor<T>&, Tensor<T>&);                 \
  template void DropoutForward<T>(const Tensor<T>&, const DropoutMask&,       \
                                  Tensor<T>&, Tensor<T>&);                    \
  template void ResidualForward<T>(const Tensor<T>&, const Tensor<T>&,        \
                                   Tensor<T>&);                               \
  template void ScaleForward<T>(const Tensor<T>&, float, Tensor<T>&);         \
  template void BiasBackwardDW<T>(const Tensor<T>&, Tensor<T>&);              \
  template void ReluBackwardDX<T>(const Tensor<T>&, const Tensor<T>&,         \
                                  Tensor<T>&);                                \
  template void DropoutBackwardDX<T>(const Tensor<T>&, const Tensor<T>&,      \
                                     float, Tensor<T>&)

XFLOW_INSTANTIATE_ELEMENTWISE(Half);
XFLOW_INSTANTIATE_ELEMENTWISE(float);
#undef XFLOW_INSTANTIATE_ELEMENTWISE

}  // namespace xflow::ops
