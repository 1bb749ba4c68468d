// Counter-based random number generation (Philox4x32-10).
//
// The paper's dropout kernels use cuRAND (Philox) to generate masks on the
// fly inside fused kernels. A counter-based generator is essential there:
// every (seed, offset) pair yields the same value regardless of evaluation
// order, so a fused kernel and its unfused reference produce identical masks.
//
// Word i of a stream is word i % 4 of the 10-round block for counter i / 4.
// Kernels never draw word by word: Philox4x32::Words fills the run of
// indices base + d * stride that a kernel row needs, computing 16 blocks
// at once in one vectorized lane loop (XFLOW_SIMD), and with stride 1 it
// computes each block once and uses all four of its words.
// DropoutMask::KeepFlags turns such a run into keep flags. Philox4x32::At
// and DropoutMask::Keep remain the per-index reference the tests compare
// the batched paths against.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/simd.hpp"

namespace xflow {

/// Philox4x32-10 block cipher; stateless, keyed by a 64-bit seed.
/// Generates 4 x 32-bit random words per 128-bit counter value.
class Philox4x32 {
 public:
  explicit Philox4x32(std::uint64_t seed) : key_{Lo(seed), Hi(seed)} {}

  /// The 4 random words for counter value `ctr` (10 rounds).
  [[nodiscard]] std::array<std::uint32_t, 4> Block(std::uint64_t ctr) const {
    std::uint32_t c0 = Lo(ctr), c1 = Hi(ctr), c2 = 0, c3 = 0;
    Rounds(c0, c1, c2, c3, key_[0], key_[1]);
    return {c0, c1, c2, c3};
  }

  /// The i-th random 32-bit word of the stream (i = 4*ctr + lane).
  [[nodiscard]] std::uint32_t At(std::uint64_t index) const {
    return Block(index / 4)[index % 4];
  }

  /// Uniform float in [0, 1) derived from the i-th word.
  [[nodiscard]] float UniformAt(std::uint64_t index) const {
    return Uniform(At(index));
  }

  /// out[d] = At(base + d * stride) for every d < out.size() (indices wrap
  /// modulo 2^64 like the per-index calls).
  void Words(std::uint64_t base, std::uint64_t stride,
             std::span<std::uint32_t> out) const;

  /// Uniform float in [0, 1) from a word's top 24 bits: exact in float,
  /// never 1.0.
  static float Uniform(std::uint32_t word) {
    return static_cast<float>(static_cast<std::int32_t>(word >> 8)) *
           0x1p-24f;
  }

 private:
  /// Blocks one Words() lane loop computes at once (one 512-bit vector of
  /// 32-bit lanes).
  static constexpr int kLanes = 16;
  static constexpr std::uint32_t kM0 = 0xD251'1F53u;
  static constexpr std::uint32_t kM1 = 0xCD9E'8D57u;
  static constexpr std::uint32_t kW0 = 0x9E37'79B9u;
  static constexpr std::uint32_t kW1 = 0xBB67'AE85u;

  static constexpr std::uint32_t Lo(std::uint64_t v) {
    return static_cast<std::uint32_t>(v);
  }
  static constexpr std::uint32_t Hi(std::uint64_t v) {
    return static_cast<std::uint32_t>(v >> 32);
  }

  /// The ten Philox rounds on one counter block, in place.
  static void Rounds(std::uint32_t& c0, std::uint32_t& c1, std::uint32_t& c2,
                     std::uint32_t& c3, std::uint32_t k0, std::uint32_t k1) {
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 = std::uint64_t{kM0} * c0;
      const std::uint64_t p1 = std::uint64_t{kM1} * c2;
      const std::uint32_t n0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
      const std::uint32_t n2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
      c1 = static_cast<std::uint32_t>(p1);
      c3 = static_cast<std::uint32_t>(p0);
      c0 = n0;
      c2 = n2;
      k0 += kW0;
      k1 += kW1;
    }
  }

  /// w[j][l] = Block(ctr[l])[j] for the first `count` <= kLanes lanes.
  void BlockLanes(const std::uint64_t* ctr, int count,
                  std::uint32_t (&w)[4][kLanes]) const {
    const std::uint32_t k0 = key_[0];
    const std::uint32_t k1 = key_[1];
    XFLOW_SIMD
    for (int l = 0; l < count; ++l) {
      std::uint32_t c0 = Lo(ctr[l]), c1 = Hi(ctr[l]), c2 = 0, c3 = 0;
      Rounds(c0, c1, c2, c3, k0, k1);
      w[0][l] = c0;
      w[1][l] = c1;
      w[2][l] = c2;
      w[3][l] = c3;
    }
  }

  std::array<std::uint32_t, 2> key_;
};

inline void Philox4x32::Words(std::uint64_t base, std::uint64_t stride,
                              std::span<std::uint32_t> out) const {
  const std::size_t n = out.size();
  alignas(64) std::uint64_t ctr[kLanes];
  alignas(64) std::uint32_t w[4][kLanes];
  if (stride == 1) {
    // Lane l computes block first + l; the run reads the lanes' words in
    // (block, word) order, skipping base % 4 words of the first block.
    std::uint64_t first = base / 4;
    std::size_t skip = base % 4;
    for (std::size_t d = 0; d < n; first += kLanes, skip = 0) {
      const std::size_t take = std::min(n - d, 4 * kLanes - skip);
      const int blocks = static_cast<int>((skip + take + 3) / 4);
      for (int l = 0; l < blocks; ++l) ctr[l] = first + l;
      BlockLanes(ctr, blocks, w);
      for (std::size_t t = 0; t < take; ++t) {
        out[d + t] = w[(skip + t) % 4][(skip + t) / 4];
      }
      d += take;
    }
    return;
  }
  // Any other stride: one block per index, keeping word index % 4.
  alignas(64) std::uint32_t word[kLanes];
  for (std::size_t d = 0; d < n; d += kLanes) {
    const int lanes = static_cast<int>(std::min<std::size_t>(kLanes, n - d));
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t index = base + (d + l) * stride;
      ctr[l] = index / 4;
      word[l] = static_cast<std::uint32_t>(index % 4);
    }
    BlockLanes(ctr, lanes, w);
    for (int l = 0; l < lanes; ++l) out[d + l] = w[word[l]][l];
  }
}

/// Inverted-dropout scale for drop probability p: 1 / (1 - p), and 0 at
/// p == 1. Throws InvalidArgument naming p unless 0 <= p <= 1 (NaN
/// included): outside that range dropout silently rescales or zeroes
/// every activation.
[[nodiscard]] float DropoutKeepScale(float drop_probability);

/// Deterministic dropout mask source: keep element i iff
/// Uniform(seed, i) >= drop_probability.
class DropoutMask {
 public:
  /// Throws InvalidArgument unless 0 <= drop_probability <= 1.
  DropoutMask(std::uint64_t seed, float drop_probability)
      : gen_(seed),
        drop_prob_(drop_probability),
        scale_(DropoutKeepScale(drop_probability)) {}

  /// Per-index reference; kernels use KeepFlags.
  [[nodiscard]] bool Keep(std::uint64_t index) const {
    return gen_.UniformAt(index) >= drop_prob_;
  }
  /// keep[d] = Keep(base + d * stride) for every d < keep.size(), drawn
  /// through Philox4x32::Words.
  void KeepFlags(std::uint64_t base, std::uint64_t stride,
                 std::span<std::uint8_t> keep) const;
  /// Scale applied to kept elements (inverted dropout).
  [[nodiscard]] float Scale() const { return scale_; }
  [[nodiscard]] float drop_probability() const { return drop_prob_; }

 private:
  Philox4x32 gen_;
  float drop_prob_;
  float scale_;
};

inline void DropoutMask::KeepFlags(std::uint64_t base, std::uint64_t stride,
                                   std::span<std::uint8_t> keep) const {
  // Uniform values lie in [0, 1): p == 0 keeps every element and p == 1
  // none, without drawing a word.
  if (drop_prob_ == 0.0f || drop_prob_ == 1.0f) {
    std::fill(keep.begin(), keep.end(),
              static_cast<std::uint8_t>(drop_prob_ == 0.0f));
    return;
  }
  constexpr std::size_t kBatch = 256;
  alignas(64) std::uint32_t words[kBatch];
  for (std::size_t d = 0; d < keep.size(); d += kBatch) {
    const std::size_t len = std::min(kBatch, keep.size() - d);
    gen_.Words(base + d * stride, stride, std::span(words, len));
    XFLOW_SIMD
    for (std::size_t t = 0; t < len; ++t) {
      keep[d + t] = Philox4x32::Uniform(words[t]) >= drop_prob_;
    }
  }
}

/// Small splitmix64 helper for seeding / hashing.
std::uint64_t SplitMix64(std::uint64_t& state);

}  // namespace xflow
