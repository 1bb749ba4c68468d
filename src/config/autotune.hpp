// Online per-(op class, shape bucket) contraction autotuner (Sec. VI).
//
// The paper picks each contraction's configuration by measuring it on the
// device it runs on; this module does the same live. Every contraction
// runs on the one GEMM (tensor/gemm.hpp), so the one choice is how a
// batched GEMM uses the pool: parallelize the batch loop, or run the batch
// serially with each GEMM's blocks in parallel. The first time the
// executor dispatches a contraction of a given (EinsumClass, bucketed
// extents, element size), the autotuner times the bucket's candidates
// (ExecCandidates) once on the real kernel and caches the fastest
// process-wide; a single GEMM has one candidate, which is cached untimed.
// Repeat steps -- and warm serving plans, which key their plan cache the
// same way -- always run the cached config and never re-measure (asserted
// via memstats::autotune_measures / autotune_hits).
//
// The choice is numerics-free (see EinsumExecConfig), so tuning never
// changes results: measuring simply re-runs the real contraction, which is
// legal whenever beta == 0 (the executor's only mode).
//
// XFLOW_AUTOTUNE selects the mode: "measure" (default) tunes and caches;
// "off" bypasses the cache and always returns the built-in heuristic.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "tensor/einsum.hpp"

namespace xflow::config {

enum class AutotuneMode { kOff, kMeasure };

/// The pure decision behind AutotuneModeFromEnv (exposed for tests):
/// `value` is the environment string or nullptr for unset, matched
/// case-insensitively. "off" / "0" / "false" / "no" -> kOff; unset, "",
/// "measure" / "on" / "1" / "true" / "yes" -> kMeasure; anything else is
/// unrecognized (nullopt).
std::optional<AutotuneMode> ParseAutotuneMode(const char* value);

/// XFLOW_AUTOTUNE, read once per process. An unrecognized value warns once
/// on stderr, naming it, and falls back to kMeasure.
AutotuneMode AutotuneModeFromEnv();

/// Cache key: contraction class + power-of-two-rounded extents + element
/// size. Rounding buckets the dynamic shapes that serving traffic varies
/// (batch, sequence length) so near-identical sites share one tuned
/// config -- the same bucketing ROADMAP item 2's plan cache will key by.
struct ShapeBucket {
  EinsumClass cls = EinsumClass::kUnclassified;
  std::int64_t m = 1, n = 1, k = 1, batch = 1;  // rounded up to 2^i
  std::int64_t elem_bytes = 4;

  auto operator<=>(const ShapeBucket&) const = default;
};

ShapeBucket BucketOf(EinsumClass cls, const GemmExtents& extents,
                     std::int64_t elem_bytes);

/// The tuned decision for one bucket.
struct TunedEntry {
  EinsumExecConfig exec;   // winning execution strategy
  bool measured = false;   // a real timing pass picked `exec`
};

/// Times one candidate execution strategy on the real kernels; returns a
/// relative cost (only comparisons matter). The executor passes a lambda
/// that re-runs its own EinsumLowered dispatch under the candidate.
using MeasureFn = std::function<double(const EinsumExecConfig&)>;

/// The cached entry for the bucket, tuning on first call (kOff bypasses
/// the cache entirely). With a non-null `measure` and more than one
/// candidate, each candidate strategy is timed and the fastest wins;
/// otherwise the built-in heuristic is cached untimed. Cache fills, timed
/// or not, are metered via memstats::autotune_measures, warm lookups via
/// autotune_hits. The cache lock is not held while tuning, so `measure`
/// may re-enter Autotune; a lookup of a bucket whose tuning is still in
/// flight (on any thread) returns the built-in heuristic without waiting
/// or counting.
TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure,
                    AutotuneMode mode);
TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure);

/// The deterministic list of execution-strategy candidates the tuner
/// measures for a bucket: the heuristic alone for a single GEMM, and
/// batch-loop then block parallelism for a batch (exposed for tests).
std::vector<EinsumExecConfig> ExecCandidates(const ShapeBucket& bucket);

/// Drops every cached entry (tests and the cold-vs-warm bench).
void ResetAutotuneCacheForTesting();

}  // namespace xflow::config
