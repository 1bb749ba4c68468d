#include "common/half.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace xflow {
namespace {

// Reference converters: the textbook branchy formulation (exponent cases,
// a normalizing loop for subnormals). Half's branch-free conversions must
// reproduce them bit for bit.
std::uint16_t RefFromFloat(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f);
  const auto sign = static_cast<std::uint16_t>((u & 0x8000'0000u) >> 16);
  const std::int32_t exp = static_cast<std::int32_t>((u >> 23) & 0xFF) - 127;
  std::uint32_t mant = u & 0x007F'FFFFu;
  if (exp == 128) {  // Inf or NaN
    if (mant != 0) return static_cast<std::uint16_t>(sign | 0x7E00u);
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp > 15) return static_cast<std::uint16_t>(sign | 0x7C00u);
  if (exp >= -14) {  // normal range: round the mantissa to 10 bits
    std::uint32_t rounded = mant + 0x0FFFu + ((mant >> 13) & 1u);
    auto e16 = static_cast<std::uint32_t>(exp + 15);
    if (rounded & 0x0080'0000u) {  // mantissa overflow bumps the exponent
      rounded = 0;
      ++e16;
      if (e16 >= 31) return static_cast<std::uint16_t>(sign | 0x7C00u);
    }
    return static_cast<std::uint16_t>(sign | (e16 << 10) | (rounded >> 13));
  }
  if (exp >= -25) {  // subnormal range
    mant |= 0x0080'0000u;
    const int shift = -exp - 14 + 13;  // in [14, 24]
    const std::uint32_t half_ulp = 1u << (shift - 1);
    const std::uint32_t lsb = (mant >> shift) & 1u;
    const std::uint32_t rounded = mant + half_ulp - 1u + lsb;
    return static_cast<std::uint16_t>(sign | (rounded >> shift));
  }
  return sign;  // underflow to signed zero
}

std::uint32_t RefToFloatBits(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exp = (bits >> 10) & 0x1Fu;
  std::uint32_t mant = bits & 0x03FFu;
  if (exp == 0) {
    if (mant == 0) return sign;
    int e = -1;  // subnormal: normalize
    do {
      mant <<= 1;
      ++e;
    } while ((mant & 0x0400u) == 0);
    mant &= 0x03FFu;
    return sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
           (mant << 13);
  }
  if (exp == 31) return sign | 0x7F80'0000u | (mant << 13);  // Inf / NaN
  return sign | ((exp - 15 + 127) << 23) | (mant << 13);
}

bool FromFloatMatchesReference(std::uint32_t u) {
  const float f = std::bit_cast<float>(u);
  return Half::FromFloat(f) == RefFromFloat(f);
}

TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(float(Half(static_cast<float>(i))), static_cast<float>(i))
        << "integer " << i << " must be exact in binary16";
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(Half(1.0f).bits(), 0x3C00);
  EXPECT_EQ(Half(-1.0f).bits(), 0xBC00);
  EXPECT_EQ(Half(0.5f).bits(), 0x3800);
  EXPECT_EQ(Half(65504.0f).bits(), 0x7BFF);  // max finite
  EXPECT_EQ(Half(0.0f).bits(), 0x0000);
  EXPECT_EQ(Half(-0.0f).bits(), 0x8000);
}

TEST(Half, OverflowGoesToInfinity) {
  EXPECT_EQ(Half(65520.0f).bits(), 0x7C00);  // rounds up past max finite
  EXPECT_EQ(Half(1e30f).bits(), 0x7C00);
  EXPECT_EQ(Half(-1e30f).bits(), 0xFC00);
}

TEST(Half, InfinityAndNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(Half(inf).bits(), 0x7C00);
  EXPECT_EQ(Half(-inf).bits(), 0xFC00);
  EXPECT_TRUE(std::isnan(float(Half(std::nanf("")))));
  EXPECT_TRUE(std::isinf(float(Half::FromBits(0x7C00))));
}

TEST(Half, SubnormalsRoundTrip) {
  // Smallest positive subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(Half(tiny).bits(), 0x0001);
  EXPECT_EQ(float(Half::FromBits(0x0001)), tiny);
  // Largest subnormal: (1023/1024) * 2^-14.
  const float big_sub = std::ldexp(1023.0f / 1024.0f, -14);
  EXPECT_EQ(Half(big_sub).bits(), 0x03FF);
  EXPECT_EQ(float(Half::FromBits(0x03FF)), big_sub);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(Half(std::ldexp(1.0f, -26)).bits(), 0x0000);
  EXPECT_EQ(Half(-std::ldexp(1.0f, -26)).bits(), 0x8000);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10):
  // must round to even mantissa (1.0).
  EXPECT_EQ(Half(1.0f + std::ldexp(1.0f, -11)).bits(), 0x3C00);
  // 1 + 3*2^-11 is halfway between (1 + 2^-10) and (1 + 2^-9): rounds to
  // even, i.e. 1 + 2^-9.
  EXPECT_EQ(Half(1.0f + 3.0f * std::ldexp(1.0f, -11)).bits(), 0x3C02);
}

TEST(Half, AllBitPatternsRoundTripThroughFloat) {
  // Exhaustive: every finite half value converts to float and back exactly.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = Half::FromBits(static_cast<std::uint16_t>(bits));
    const float f = float(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(Half(f).bits(), h.bits()) << "bits=" << bits;
  }
}

TEST(Half, ArithmeticRoundsOnce) {
  Half a(1.0f), b(0.0004883f);  // b ~= 2^-11, below 1.0's ulp.
  a += b;
  EXPECT_EQ(float(a), 1.0f) << "sum must round back to 1.0 in fp16";
}

TEST(HalfReference, ToFloatMatchesOnEveryHalfPattern) {
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    ASSERT_EQ(std::bit_cast<std::uint32_t>(Half::ToFloat(bits)),
              RefToFloatBits(bits))
        << "half bits 0x" << std::hex << h;
  }
}

// Every exact half value, the exhaustive float bands around every behavior
// boundary (normal edge, subnormal edge, overflow, Inf/NaN), and a wide
// deterministic sample. The full sweep is the disabled test below.
TEST(HalfReference, FromFloatMatchesOnHalfValuesAndBoundaryBands) {
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    const std::uint32_t u = RefToFloatBits(static_cast<std::uint16_t>(h));
    ASSERT_TRUE(FromFloatMatchesReference(u)) << std::hex << u;
  }
  constexpr std::uint32_t kHalfBand = 1u << 14;
  for (const std::uint32_t edge :
       {0x3880'0000u,    // smallest normal half (2^-14)
        0x3300'0000u,    // half-subnormal underflow boundary (2^-25)
        0x477F'E000u,    // largest finite half (65504.0f)
        0x7F80'0000u}) {  // Inf / NaN
    for (std::uint32_t u = edge - kHalfBand; u <= edge + kHalfBand; ++u) {
      ASSERT_TRUE(FromFloatMatchesReference(u)) << std::hex << u;
      ASSERT_TRUE(FromFloatMatchesReference(u | 0x8000'0000u))
          << std::hex << (u | 0x8000'0000u);
    }
  }
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 1'000'000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const auto u = static_cast<std::uint32_t>(lcg >> 32);
    ASSERT_TRUE(FromFloatMatchesReference(u)) << std::hex << u;
  }
}

// All 2^32 float patterns (~20 s optimized). Run explicitly with
// --gtest_also_run_disabled_tests --gtest_filter='HalfReference.DISABLED_*'.
TEST(HalfReference, DISABLED_FromFloatMatchesOnEveryFloat) {
  std::uint32_t u = 0;
  do {
    ASSERT_TRUE(FromFloatMatchesReference(u)) << std::hex << u;
  } while (++u != 0);
}

}  // namespace
}  // namespace xflow
