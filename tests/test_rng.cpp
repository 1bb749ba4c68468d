#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace xflow {
namespace {

TEST(Philox, DeterministicAcrossInstances) {
  Philox4x32 a(42), b(42);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.At(i), b.At(i));
  }
}

TEST(Philox, OrderIndependent) {
  // Counter-based: reading indices in any order yields the same values.
  Philox4x32 gen(7);
  std::vector<std::uint32_t> forward(256), backward(256);
  for (std::uint64_t i = 0; i < 256; ++i) forward[i] = gen.At(i);
  for (std::uint64_t i = 256; i-- > 0;) backward[i] = gen.At(i);
  EXPECT_EQ(forward, backward);
}

TEST(Philox, SeedsDecorrelate) {
  Philox4x32 a(1), b(2);
  int same = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) same += (a.At(i) == b.At(i));
  EXPECT_LT(same, 3) << "different seeds should give different streams";
}

TEST(Philox, UniformInUnitInterval) {
  Philox4x32 gen(123);
  double sum = 0;
  constexpr int kN = 100000;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const float u = gen.UniformAt(i);
    ASSERT_GE(u, 0.0f);
    ASSERT_LT(u, 1.0f);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.005) << "mean of U[0,1) samples";
}

TEST(Philox, BlockLanesDiffer) {
  Philox4x32 gen(9);
  const auto block = gen.Block(5);
  std::set<std::uint32_t> uniq(block.begin(), block.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(DropoutMask, MatchesProbability) {
  DropoutMask mask(99, 0.25f);
  int kept = 0;
  constexpr int kN = 100000;
  for (std::uint64_t i = 0; i < kN; ++i) kept += mask.Keep(i);
  EXPECT_NEAR(static_cast<double>(kept) / kN, 0.75, 0.01);
  EXPECT_FLOAT_EQ(mask.Scale(), 1.0f / 0.75f);
}

TEST(DropoutMask, ZeroProbabilityKeepsEverything) {
  DropoutMask mask(1, 0.0f);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(mask.Keep(i));
  EXPECT_FLOAT_EQ(mask.Scale(), 1.0f);
}

TEST(DropoutMask, RejectsProbabilitiesOutsideTheUnitInterval) {
  for (const float p : {-0.5f, 1.5f, std::nanf("")}) {
    try {
      DropoutMask mask(1, p);
      ADD_FAILURE() << "dropout probability " << p << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      const std::string value =
          std::isnan(p) ? "nan" : (p < 0 ? "-0.5" : "1.5");
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
  EXPECT_FLOAT_EQ(DropoutKeepScale(0.0f), 1.0f);
  EXPECT_FLOAT_EQ(DropoutKeepScale(0.2f), 1.0f / 0.8f);
  EXPECT_EQ(DropoutKeepScale(1.0f), 0.0f);
}

// The batched draws must equal the per-index reference at every base
// alignment, stride and length, including the ones the kernels use:
// stride 1 (softmax over k, dropout over j) and the canonical strides of
// strided rows (BDRLN over i: J; BRD over j: U), over lengths that are
// not multiples of a block (4), a lane group (4 * kLanes), the keep-flag
// batch (256) or the kernels' mask chunk (512).
constexpr std::uint64_t kStrides[] = {1,  2,   3,   4,   5,    32,
                                      64, 128, 512, 768, 1024, 3072};
constexpr std::uint64_t kBases[] = {0, 1, 2, 3, 5, 7, 64, 1001, 123'457};
constexpr std::size_t kLengths[] = {0,  1,   2,   3,   4,   5,   7,   63,
                                    64, 65,  67,  255, 256, 257, 511, 513,
                                    1000};

void ExpectWordsMatchAt(const Philox4x32& gen, std::uint64_t base,
                        std::uint64_t stride, std::size_t n) {
  std::vector<std::uint32_t> words(n);
  gen.Words(base, stride, words);
  for (std::size_t d = 0; d < n; ++d) {
    ASSERT_EQ(words[d], gen.At(base + d * stride))
        << "base " << base << " stride " << stride << " d " << d;
  }
}

void ExpectKeepFlagsMatchKeep(const DropoutMask& mask, std::uint64_t base,
                              std::uint64_t stride, std::size_t n) {
  std::vector<std::uint8_t> keep(n, 2);
  mask.KeepFlags(base, stride, keep);
  for (std::size_t d = 0; d < n; ++d) {
    ASSERT_EQ(keep[d], mask.Keep(base + d * stride) ? 1 : 0)
        << "p " << mask.drop_probability() << " base " << base << " stride "
        << stride << " d " << d;
  }
}

TEST(PhiloxWords, MatchesAtForEveryBaseStrideAndLength) {
  const Philox4x32 gen(0x0123'4567'89AB'CDEFull);
  for (const std::uint64_t stride : kStrides) {
    for (const std::uint64_t base : kBases) {
      for (const std::size_t n : kLengths) {
        ExpectWordsMatchAt(gen, base, stride, n);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(PhiloxWords, CarriesIntoTheHighCounterWord) {
  // Block counter i / 4 crosses 2^32 at index 2^34: the batched lanes
  // must carry into the counter's high word exactly like Block().
  const Philox4x32 gen(7);
  constexpr std::uint64_t kCarry = std::uint64_t{1} << 34;
  for (const std::uint64_t stride : {1, 3, 4, 5, 512}) {
    for (const std::uint64_t before : {1, 2, 3, 37, 200}) {
      ExpectWordsMatchAt(gen, kCarry - before * stride, stride, 301);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DropoutMask, KeepFlagsMatchKeep) {
  for (const float p : {0.0f, 0.1f, 0.5f, 1.0f}) {
    const DropoutMask mask(0xD00D, p);
    for (const std::uint64_t stride : kStrides) {
      for (const std::uint64_t base : kBases) {
        for (const std::size_t n : kLengths) {
          ExpectKeepFlagsMatchKeep(mask, base, stride, n);
          if (HasFatalFailure()) return;
        }
      }
    }
    ExpectKeepFlagsMatchKeep(mask, (std::uint64_t{1} << 34) - 6, 1, 100);
    ExpectKeepFlagsMatchKeep(mask, (std::uint64_t{1} << 34) - 30, 3, 100);
  }
}

TEST(SplitMix, ProducesDistinctValues) {
  std::uint64_t state = 0;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(SplitMix64(state));
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace xflow
