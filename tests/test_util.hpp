// Shared test helpers: finite-difference gradient checking, bitwise
// tensor comparison and a scoped global thread count.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "common/threadpool.hpp"
#include "tensor/tensor.hpp"

namespace xflow::testutil {

/// Whether two tensors of one layout hold the same bytes: -0 differs from
/// +0 and NaN payloads count, unlike MaxAbsDiff == 0.
template <typename T>
::testing::AssertionResult BitwiseSame(const Tensor<T>& a,
                                       const Tensor<T>& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shapes differ: " << ToString(a.shape()) << " vs "
           << ToString(b.shape());
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<std::size_t>(a.size()) * sizeof(T)) != 0) {
    return ::testing::AssertionFailure()
           << "buffers differ (max abs diff " << MaxAbsDiff(a, b) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Sets the global pool's thread count for one scope, then restores the
/// resolved default.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ThreadGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Central-difference numerical gradient of scalar `loss` w.r.t. `param`.
/// `loss` must be a pure function of the current contents of `param`.
inline TensorF NumericalGradient(TensorF& param,
                                 const std::function<double()>& loss,
                                 float eps = 1e-3f) {
  TensorF grad(param.shape());
  for (std::int64_t i = 0; i < param.size(); ++i) {
    const float saved = param.data()[i];
    param.data()[i] = saved + eps;
    const double up = loss();
    param.data()[i] = saved - eps;
    const double down = loss();
    param.data()[i] = saved;
    grad.data()[i] = static_cast<float>((up - down) / (2.0 * eps));
  }
  return grad;
}

/// Scalar probe loss: weighted sum of a tensor's elements with fixed
/// pseudo-random weights (makes every output element matter).
inline double ProbeLoss(const TensorF& t, std::uint64_t seed = 99) {
  Philox4x32 gen(seed);
  double sum = 0;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    sum += static_cast<double>(t.data()[i]) *
           (static_cast<double>(gen.UniformAt(static_cast<std::uint64_t>(i))) -
            0.5);
  }
  return sum;
}

/// The probe loss's gradient w.r.t. the tensor (for seeding backward passes).
inline TensorF ProbeLossGrad(const Shape& shape, std::uint64_t seed = 99) {
  Philox4x32 gen(seed);
  TensorF g(shape);
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g.data()[i] = gen.UniformAt(static_cast<std::uint64_t>(i)) - 0.5f;
  }
  return g;
}

}  // namespace xflow::testutil
