#include "config/autotune.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "tensor/memstats.hpp"

namespace xflow::config {

namespace {

std::int64_t RoundUpPow2(std::int64_t v) {
  std::int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::mutex& CacheMutex() {
  static std::mutex mu;
  return mu;
}

/// A bucket maps to nullopt from the moment a caller claims it until that
/// caller publishes the tuned entry.
std::map<ShapeBucket, std::optional<TunedEntry>>& Cache() {
  static std::map<ShapeBucket, std::optional<TunedEntry>> cache;
  return cache;
}

}  // namespace

std::optional<AutotuneMode> ParseAutotuneMode(const char* value) {
  if (value == nullptr || *value == '\0') return AutotuneMode::kMeasure;
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "off" || v == "0" || v == "false" || v == "no") {
    return AutotuneMode::kOff;
  }
  if (v == "measure" || v == "on" || v == "1" || v == "true" || v == "yes") {
    return AutotuneMode::kMeasure;
  }
  return std::nullopt;
}

AutotuneMode AutotuneModeFromEnv() {
  static const AutotuneMode mode = [] {
    const char* env = std::getenv("XFLOW_AUTOTUNE");
    if (const auto parsed = ParseAutotuneMode(env)) return *parsed;
    // Like XFLOW_THREADS: a typo (or a retired mode) must not pass
    // silently for a configured run.
    std::fprintf(stderr,
                 "xflow: ignoring invalid XFLOW_AUTOTUNE=\"%s\" (expected "
                 "off or measure); using measure\n",
                 env);
    return AutotuneMode::kMeasure;
  }();
  return mode;
}

ShapeBucket BucketOf(EinsumClass cls, const GemmExtents& extents,
                     std::int64_t elem_bytes) {
  ShapeBucket b;
  b.cls = cls;
  b.m = RoundUpPow2(extents.m);
  b.n = RoundUpPow2(extents.n);
  b.k = RoundUpPow2(extents.k);
  b.batch = RoundUpPow2(extents.batch);
  b.elem_bytes = elem_bytes;
  return b;
}

std::vector<EinsumExecConfig> ExecCandidates(const ShapeBucket& bucket) {
  // The heuristic always resolves a batch to one of the two explicit
  // strategies, so listing it too would time one of them twice.
  if (bucket.batch > 1) {
    return {EinsumExecConfig{.batch_parallel = 1},
            EinsumExecConfig{.batch_parallel = 0}};
  }
  return {EinsumExecConfig{}};  // the built-in heuristic
}

TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure,
                    AutotuneMode mode) {
  if (mode == AutotuneMode::kOff) return TunedEntry{};

  // Look up or claim the bucket under the lock, then tune without it: a
  // measuring thread's pool wait may steal another contraction step that
  // re-enters Autotune on this same thread. Each bucket is still tuned
  // exactly once. A caller that finds the bucket claimed but not yet
  // filled runs the built-in heuristic instead of waiting -- every knob is
  // numerics-free, so only that one launch's speed differs.
  {
    const std::lock_guard<std::mutex> lock(CacheMutex());
    const auto [it, claimed] = Cache().try_emplace(bucket);
    if (!claimed) {
      if (!it->second.has_value()) return TunedEntry{};
      memstats::RecordAutotuneHit();
      return *it->second;
    }
  }

  TunedEntry entry;  // the built-in heuristic unless a timing pass runs
  const auto candidates = ExecCandidates(bucket);
  // A lone candidate wins untimed: running it would only cost set-up time.
  if (measure && candidates.size() > 1) {
    try {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& cand : candidates) {
        // Best-of-two damps scheduler noise; every candidate computes the
        // same bits, so re-running the contraction is side-effect-free.
        const double t = std::min(measure(cand), measure(cand));
        if (t < best) {
          best = t;
          entry.exec = cand;
        }
      }
    } catch (...) {
      // Release the claim so a later dispatch can tune the bucket.
      const std::lock_guard<std::mutex> lock(CacheMutex());
      Cache().erase(bucket);
      throw;
    }
    entry.measured = true;
  }
  memstats::RecordAutotuneMeasure();
  const std::lock_guard<std::mutex> lock(CacheMutex());
  Cache()[bucket] = entry;
  return entry;
}

TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure) {
  return Autotune(bucket, measure, AutotuneModeFromEnv());
}

void ResetAutotuneCacheForTesting() {
  const std::lock_guard<std::mutex> lock(CacheMutex());
  Cache().clear();
}

}  // namespace xflow::config
