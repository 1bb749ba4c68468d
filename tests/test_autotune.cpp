// The online contraction autotuner: a (class, shape bucket) is tuned at
// most once per process, warm lookups never re-measure (the memstats
// counters are the contract the serving plans of ROADMAP item 2 build
// on), and tuning never changes a result byte -- every candidate is
// numerics-free.
#include "config/autotune.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "tensor/memstats.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"

namespace xflow {
namespace {

using config::AutotuneMode;
using config::Autotune;
using config::BucketOf;
using config::ExecCandidates;
using config::ParseAutotuneMode;
using config::ResetAutotuneCacheForTesting;
using config::ShapeBucket;

TEST(AutotuneMode, ParsesTheEnvKnob) {
  EXPECT_EQ(ParseAutotuneMode(nullptr), AutotuneMode::kMeasure);
  EXPECT_EQ(ParseAutotuneMode(""), AutotuneMode::kMeasure);
  EXPECT_EQ(ParseAutotuneMode("measure"), AutotuneMode::kMeasure);
  EXPECT_EQ(ParseAutotuneMode("on"), AutotuneMode::kMeasure);
  EXPECT_EQ(ParseAutotuneMode("off"), AutotuneMode::kOff);
  EXPECT_EQ(ParseAutotuneMode("OFF"), AutotuneMode::kOff);
  EXPECT_EQ(ParseAutotuneMode("0"), AutotuneMode::kOff);
  EXPECT_EQ(ParseAutotuneMode("false"), AutotuneMode::kOff);
  EXPECT_EQ(ParseAutotuneMode("no"), AutotuneMode::kOff);
  // Unrecognized: AutotuneModeFromEnv warns and falls back to measure.
  EXPECT_EQ(ParseAutotuneMode("mesure"), std::nullopt);
}

TEST(AutotuneBucket, RoundsExtentsUpToPowersOfTwo) {
  const GemmExtents e{.m = 70, .n = 1, .k = 33, .batch = 5};
  const auto b = BucketOf(EinsumClass::kBatchedGemm, e, 2);
  EXPECT_EQ(b.cls, EinsumClass::kBatchedGemm);
  EXPECT_EQ(b.m, 128);
  EXPECT_EQ(b.n, 1);
  EXPECT_EQ(b.k, 64);
  EXPECT_EQ(b.batch, 8);
  EXPECT_EQ(b.elem_bytes, 2);
  // Shapes in the same bucket share one tuned entry; shapes in different
  // buckets do not.
  const GemmExtents near{.m = 65, .n = 1, .k = 60, .batch = 8};
  EXPECT_EQ(BucketOf(EinsumClass::kBatchedGemm, near, 2), b);
  EXPECT_NE(BucketOf(EinsumClass::kGemm, e, 2), b);
  EXPECT_NE(BucketOf(EinsumClass::kBatchedGemm, e, 4), b);
}

TEST(AutotuneCandidates, HeuristicForAGemmEachStrategyOnceForABatch) {
  // A single GEMM, degenerate or not, has nothing to vary.
  for (const GemmExtents& e :
       {GemmExtents{.m = 512, .n = 512, .k = 512},
        GemmExtents{.m = 512, .n = 1, .k = 512}}) {
    const auto gemm = ExecCandidates(BucketOf(EinsumClass::kGemm, e, 4));
    ASSERT_EQ(gemm.size(), 1u);
    EXPECT_EQ(gemm.front().batch_parallel, -1);  // the built-in heuristic
  }
  // A batch runs its loop in parallel or each GEMM's blocks. The
  // heuristic resolves to one of the two, so it is not a third candidate.
  const auto batched = ExecCandidates(BucketOf(
      EinsumClass::kBatchedGemm, {.m = 64, .n = 64, .k = 64, .batch = 8}, 4));
  ASSERT_EQ(batched.size(), 2u);
  EXPECT_EQ(batched[0].batch_parallel, 1);
  EXPECT_EQ(batched[1].batch_parallel, 0);
}

TEST(Autotune, ColdTunesOnceThenEveryLookupIsWarm) {
  ResetAutotuneCacheForTesting();
  const auto bucket = BucketOf(EinsumClass::kBatchedGemm,
                               {.m = 300, .n = 40, .k = 77, .batch = 6}, 4);
  int calls = 0;
  const config::MeasureFn fn = [&](const EinsumExecConfig& cand) {
    ++calls;
    return cand.batch_parallel == 0 ? 0.5 : 1.0;  // deterministic "winner"
  };

  const auto before = memstats::Read();
  const auto cold = Autotune(bucket, fn, AutotuneMode::kMeasure);
  const auto mid = memstats::Read();
  EXPECT_EQ(mid.autotune_measures, before.autotune_measures + 1);
  EXPECT_TRUE(cold.measured);
  EXPECT_EQ(calls, 4);  // best of two runs for each of the two strategies
  EXPECT_EQ(cold.exec.batch_parallel, 0);  // the measured-fastest candidate

  const int calls_after_cold = calls;
  const auto warm = Autotune(bucket, fn, AutotuneMode::kMeasure);
  const auto after = memstats::Read();
  EXPECT_EQ(after.autotune_measures, mid.autotune_measures)
      << "a warm autotune lookup re-measured";
  EXPECT_EQ(after.autotune_hits, mid.autotune_hits + 1);
  EXPECT_EQ(calls, calls_after_cold);
  EXPECT_EQ(warm.exec.batch_parallel, cold.exec.batch_parallel);
}

TEST(Autotune, SingleCandidateBucketIsCachedUntimed) {
  // A single GEMM has one candidate, so timing it could only cost set-up
  // time: the fill caches the heuristic without calling `measure`, and
  // still counts as the bucket's one fill.
  ResetAutotuneCacheForTesting();
  const auto bucket = BucketOf(EinsumClass::kGemm,
                               {.m = 300, .n = 1, .k = 77, .batch = 1}, 4);
  const config::MeasureFn never = [](const EinsumExecConfig&) {
    ADD_FAILURE() << "a single-candidate bucket was timed";
    return 1.0;
  };
  const auto before = memstats::Read();
  const auto cold = Autotune(bucket, never, AutotuneMode::kMeasure);
  const auto mid = memstats::Read();
  EXPECT_FALSE(cold.measured);
  EXPECT_EQ(cold.exec.batch_parallel, -1);
  EXPECT_EQ(mid.autotune_measures, before.autotune_measures + 1);
  EXPECT_EQ(mid.autotune_hits, before.autotune_hits);

  const auto warm = Autotune(bucket, never, AutotuneMode::kMeasure);
  const auto after = memstats::Read();
  EXPECT_FALSE(warm.measured);
  EXPECT_EQ(after.autotune_measures, mid.autotune_measures);
  EXPECT_EQ(after.autotune_hits, mid.autotune_hits + 1);
}

TEST(Autotune, UntimedFillOfABatchKeepsTheHeuristic) {
  // Without a timing function nothing picks a batch strategy, so the
  // fill caches the built-in heuristic, not the first candidate.
  ResetAutotuneCacheForTesting();
  const auto bucket = BucketOf(EinsumClass::kBatchedGemm,
                               {.m = 50, .n = 20, .k = 10, .batch = 3}, 4);
  const auto cold = Autotune(bucket, nullptr, AutotuneMode::kMeasure);
  EXPECT_FALSE(cold.measured);
  EXPECT_EQ(cold.exec.batch_parallel, -1);
  EXPECT_EQ(
      Autotune(bucket, nullptr, AutotuneMode::kMeasure).exec.batch_parallel,
      -1);
}

TEST(Autotune, OffModeBypassesTheCacheEntirely) {
  const auto bucket = BucketOf(EinsumClass::kBatchedGemm,
                               {.m = 99, .n = 31, .k = 1, .batch = 4}, 4);
  const auto before = memstats::Read();
  const auto entry = Autotune(bucket, nullptr, AutotuneMode::kOff);
  const auto after = memstats::Read();
  EXPECT_EQ(after.autotune_measures, before.autotune_measures);
  EXPECT_EQ(after.autotune_hits, before.autotune_hits);
  EXPECT_FALSE(entry.measured);
  EXPECT_EQ(entry.exec.batch_parallel, -1);  // the built-in heuristic
}

TEST(Autotune, MeasureMayReenterTheTuner) {
  // A measuring thread can re-enter Autotune (its pool wait steals another
  // contraction step). The re-entrant lookup must neither block on the
  // cache nor tune the in-flight bucket twice: another bucket tunes
  // normally, the in-flight one answers with the built-in heuristic.
  ResetAutotuneCacheForTesting();
  const auto outer = BucketOf(EinsumClass::kBatchedGemm,
                              {.m = 40, .n = 24, .k = 24, .batch = 8}, 4);
  const auto inner = BucketOf(EinsumClass::kBatchedGemm,
                              {.m = 40, .n = 24, .k = 1, .batch = 4}, 4);
  int inner_calls = 0;
  const config::MeasureFn inner_fn = [&](const EinsumExecConfig& cand) {
    ++inner_calls;
    return cand.batch_parallel == 0 ? 0.5 : 1.0;
  };
  config::TunedEntry nested, in_flight;
  bool reentered = false;
  const config::MeasureFn outer_fn = [&](const EinsumExecConfig& cand) {
    if (!reentered) {
      reentered = true;
      nested = Autotune(inner, inner_fn, AutotuneMode::kMeasure);
      in_flight = Autotune(outer, nullptr, AutotuneMode::kMeasure);
    }
    return cand.batch_parallel == 1 ? 0.5 : 1.0;
  };

  const auto before = memstats::Read();
  const auto entry = Autotune(outer, outer_fn, AutotuneMode::kMeasure);
  const auto after = memstats::Read();
  EXPECT_TRUE(entry.measured);
  EXPECT_EQ(entry.exec.batch_parallel, 1);
  EXPECT_TRUE(nested.measured);
  EXPECT_EQ(nested.exec.batch_parallel, 0);
  EXPECT_GT(inner_calls, 0);
  EXPECT_FALSE(in_flight.measured);  // the built-in heuristic
  EXPECT_EQ(in_flight.exec.batch_parallel, -1);
  // Both buckets tuned exactly once; the in-flight lookup is no hit.
  EXPECT_EQ(after.autotune_measures, before.autotune_measures + 2);
  EXPECT_EQ(after.autotune_hits, before.autotune_hits);

  // Both entries were published: later lookups are warm.
  EXPECT_EQ(
      Autotune(outer, nullptr, AutotuneMode::kMeasure).exec.batch_parallel,
      1);
  EXPECT_EQ(
      Autotune(inner, nullptr, AutotuneMode::kMeasure).exec.batch_parallel,
      0);
  EXPECT_EQ(memstats::Read().autotune_hits, after.autotune_hits + 2);
}

// End-to-end: a warm executor step never re-measures -- the second
// execution of every (op class, shape bucket) hits the config cache.
TEST(Autotune, WarmExecutorStepHitsTheConfigCache) {
  if (config::AutotuneModeFromEnv() == AutotuneMode::kOff) {
    GTEST_SKIP() << "XFLOW_AUTOTUNE=off disables the cache";
  }
  using namespace transformer;
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  cfg.dropout_prob = 0.1f;
  cfg.seed = 7;
  cfg.use_fused_kernels = true;
  EncoderStackT<Half> stack(cfg, 1, 11);
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = 1});
  auto x = TensorH::Random(Shape("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j}),
                           13);

  stack.Forward(x, arena);  // cold: fills the per-bucket entries
  const auto before = memstats::Read();
  const TensorH& y = stack.Forward(x, arena);
  const auto after = memstats::Read();
  EXPECT_EQ(after.autotune_measures, before.autotune_measures)
      << "a warm executor step re-tuned a contraction bucket";
  EXPECT_GT(after.autotune_hits, before.autotune_hits)
      << "the warm step did not consult the config cache";

  // A *new* executor over the same shapes is warm from the start -- the
  // process-wide cache is what item 2's plan cache will lean on.
  EncoderStackT<Half> second(cfg, 1, 11);
  auto arena2 = MakeStackArena<Half>(cfg, {.num_layers = 1});
  const auto fresh_before = memstats::Read();
  const TensorH& y2 = second.Forward(x, arena2);
  const auto fresh_after = memstats::Read();
  EXPECT_EQ(fresh_after.autotune_measures, fresh_before.autotune_measures)
      << "a second executor over tuned shapes re-measured";
  EXPECT_EQ(MaxAbsDiff(y, y2), 0.0);
}

}  // namespace
}  // namespace xflow
