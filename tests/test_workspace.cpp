#include "tensor/workspace.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/memstats.hpp"

namespace xflow {
namespace {

TEST(Workspace, ViewsAliasTheSlab) {
  Workspace ws(1024);
  auto a = ws.ViewAt<float>(0, Shape("x", {8}));
  auto b = ws.ViewAt<float>(0, Shape("x", {8}));
  a.data()[3] = 7.0f;
  EXPECT_EQ(b.data()[3], 7.0f);  // same bytes
  EXPECT_FALSE(a.owns_data());
  // Copies of a view alias too.
  TensorF c = a;
  c.data()[3] = 9.0f;
  EXPECT_EQ(a.data()[3], 9.0f);
}

TEST(Workspace, ReserveZeroesAndViewsAreBoundsChecked) {
  Workspace ws;
  ws.Reserve(256);
  auto v = ws.ViewAt<std::int64_t>(64, Shape("x", {4}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(v.data()[i], 0);
  EXPECT_THROW((void)ws.ViewAt<float>(256, Shape("x", {1})),
               InvalidArgument);
  EXPECT_THROW((void)ws.ViewAt<float>(2, Shape("x", {1})),
               InvalidArgument);  // misaligned for float
}

TEST(Workspace, GrowthIsRecordedByTheAllocationHook) {
  const auto before = memstats::Read();
  Workspace ws(128);
  auto mid = memstats::Read();
  EXPECT_EQ(mid.workspace_allocs - before.workspace_allocs, 1);
  ws.Reserve(4096);  // forces growth
  const auto after = memstats::Read();
  EXPECT_EQ(after.workspace_allocs - mid.workspace_allocs, 1);
  EXPECT_GE(after.workspace_bytes - mid.workspace_bytes, 4096);
}

TEST(TensorView, EnsureShapeReusesStorage) {
  TensorF t(Shape("ab", {4, 8}));
  const float* data = t.data();
  const auto before = memstats::Read();
  t.EnsureShape(Shape("ba", {8, 4}));  // same element count: relabel only
  EXPECT_EQ(t.data(), data);
  EXPECT_EQ(memstats::Read().tensor_allocs, before.tensor_allocs);
  t.EnsureShape(Shape("ab", {2, 2}));  // different count: realloc + zero
  EXPECT_EQ(memstats::Read().tensor_allocs, before.tensor_allocs + 1);
  EXPECT_EQ(t.data()[3], 0.0f);

  Workspace ws(1024);
  auto v = ws.ViewAt<float>(0, Shape("x", {16}));
  v.EnsureShape(Shape("y", {16}));  // views relabel freely...
  EXPECT_FALSE(v.owns_data());
  // ...but never resize: their planned storage is fixed.
  EXPECT_THROW(v.EnsureShape(Shape("y", {17})), InvalidArgument);
}

TEST(TensorView, SliceViewDimAliasesOutermostSlices) {
  auto t = TensorF::Random(Shape("pab", {6, 3, 4}), 1);
  auto view = t.SliceViewDim('p', 2, 2);
  auto copy = t.SliceDim('p', 2, 2);
  EXPECT_EQ(view.shape(), copy.shape());
  EXPECT_EQ(MaxAbsDiff(view, copy), 0.0);
  EXPECT_FALSE(view.owns_data());
  EXPECT_EQ(view.data(), t.data() + 2 * t.stride('p'));
  // Writes through the view hit the parent.
  view.data()[0] = 123.0f;
  EXPECT_EQ(t.at({{'p', 2}, {'a', 0}, {'b', 0}}), 123.0f);
  // Only the outermost dimension slices as a contiguous view.
  EXPECT_THROW((void)t.SliceViewDim('a', 0, 1), InvalidArgument);
}

TEST(TensorAlloc, CopiesCountViewsDoNot) {
  TensorF owning(Shape("x", {64}));
  const auto before = memstats::Read();
  TensorF deep = owning;  // owning copy allocates
  EXPECT_EQ(memstats::Read().tensor_allocs, before.tensor_allocs + 1);
  auto view = TensorF::FromSpan(owning.shape(), owning.data());
  TensorF shallow = view;  // view copy aliases
  EXPECT_EQ(memstats::Read().tensor_allocs, before.tensor_allocs + 1);
  EXPECT_EQ(shallow.data(), owning.data());
  EXPECT_NE(deep.data(), owning.data());
}

TEST(TensorInit, ParallelFillMatchesSerialReference) {
  // Random/Full/zero-fill run chunked on the pool; values are a pure
  // function of the element index, so the thread count must not matter.
  // Sizes: several 2^16-element chunks, and sizes that are not a
  // multiple of a Philox block (4 words) or of a chunk.
  constexpr std::int64_t kChunk = std::int64_t{1} << 16;
  for (const std::int64_t n : {4 * kChunk, 2 * kChunk + 7, kChunk + 3,
                               std::int64_t{4099}, std::int64_t{3}}) {
    ThreadPool::SetGlobalThreads(8);
    auto par = TensorF::Random(Shape("x", {n}), 42);
    auto full_par = TensorH::Full(Shape("x", {n}), 3.5f);
    ThreadPool::SetGlobalThreads(1);
    auto ser = TensorF::Random(Shape("x", {n}), 42);
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
    EXPECT_EQ(MaxAbsDiff(par, ser), 0.0);
    // And against the per-index generator, at every index.
    Philox4x32 gen(42);
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(par.data()[i],
                gen.UniformAt(static_cast<std::uint64_t>(i)) * 2.0f - 1.0f)
          << "n " << n << " index " << i;
      ASSERT_EQ(float(full_par.data()[i]), 3.5f);
    }
  }
}

}  // namespace
}  // namespace xflow
