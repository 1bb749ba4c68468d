// Software IEEE 754 binary16 ("half") arithmetic.
//
// The paper trains with FP16 storage and FP32 accumulation (mixed precision,
// Sec. III-D). This type reproduces that numerics contract on hardware
// without native fp16: values are stored as 16-bit patterns and every
// arithmetic operation round-trips through float.
//
// The two conversions are the inner loop of every memory-bound kernel, so
// they are written without data-dependent branches: a branchy converter
// blocks vectorization, and a subnormal-normalizing loop costs several
// times a normal value's conversion -- and training gradients are full of
// fp16 subnormals (a loss gradient 2(y - t)/N with N ~ 10^5 sits below the
// 6.1e-5 normal floor).
#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>

namespace xflow {

/// IEEE 754 binary16 value. Conversions use round-to-nearest-even.
class Half {
 public:
  constexpr Half() = default;
  Half(float f) : bits_(FromFloat(f)) {}  // NOLINT: implicit by design

  /// Reinterpret a raw bit pattern as a Half.
  static constexpr Half FromBits(std::uint16_t bits) {
    Half h;
    h.bits_ = bits;
    return h;
  }

  operator float() const { return ToFloat(bits_); }  // NOLINT: implicit

  [[nodiscard]] constexpr std::uint16_t bits() const { return bits_; }

  Half& operator+=(Half o) { return *this = Half(float(*this) + float(o)); }
  Half& operator-=(Half o) { return *this = Half(float(*this) - float(o)); }
  Half& operator*=(Half o) { return *this = Half(float(*this) * float(o)); }
  Half& operator/=(Half o) { return *this = Half(float(*this) / float(o)); }

  friend bool operator==(Half a, Half b) { return float(a) == float(b); }
  friend bool operator!=(Half a, Half b) { return float(a) != float(b); }
  friend bool operator<(Half a, Half b) { return float(a) < float(b); }
  friend bool operator<=(Half a, Half b) { return float(a) <= float(b); }
  friend bool operator>(Half a, Half b) { return float(a) > float(b); }
  friend bool operator>=(Half a, Half b) { return float(a) >= float(b); }

  /// float -> binary16 bit pattern, round-to-nearest-even, with proper
  /// handling of subnormals, infinities and NaN (every NaN becomes the
  /// quiet NaN 0x7E00, sign kept). Branch-free and inline (below).
  static std::uint16_t FromFloat(float f);
  /// binary16 bit pattern -> float (exact; NaN payloads kept).
  /// Branch-free and inline (below).
  static float ToFloat(std::uint16_t bits);

 private:
  std::uint16_t bits_ = 0;
};

std::ostream& operator<<(std::ostream& os, Half h);

/// Number of bytes per element for the storage type used by the paper (fp16).
inline constexpr int kHalfBytes = 2;

// Conversion definitions. Straight-line integer arithmetic plus one float
// add (FromFloat) or subtract (ToFloat), with no data-dependent branch, kept
// in the header so every kernel row loop, the GEMM pack and writeback loops
// and the optimizer inline them and vectorize. Both are bit-exact against
// the textbook branchy conversions (test_half compares every half pattern,
// and a disabled test sweeps every float pattern).

inline std::uint16_t Half::FromFloat(float f) {
  const std::uint32_t u = std::bit_cast<std::uint32_t>(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  const std::uint32_t au = u & 0x7FFF'FFFFu;
  // Normal range: round the 13 excess mantissa bits to nearest-even by
  // adding 0x0FFF plus the round-to-odd bit directly on the float bits
  // (a mantissa carry bumps the exponent for free), then rebias the
  // exponent by 127 - 15. Values past the half range saturate at the Inf
  // pattern; every NaN becomes the quiet NaN 0x7E00 (sign kept).
  std::uint32_t n = ((au + 0x0FFFu + ((au >> 13) & 1u)) >> 13) - (112u << 10);
  n = n > 0x7C00u ? 0x7C00u : n;
  n = au > 0x7F80'0000u ? 0x7E00u : n;
  // Subnormal range (|f| < 2^-14): adding 0.5f aligns the value's bits to
  // the half-subnormal grid (ulp 2^-24 == ulp of 0.5f) and the float
  // adder's round-to-nearest-even performs the rounding; subtracting the
  // 0.5f pattern leaves exactly the rounded subnormal payload (underflow
  // falls out as zero).
  const std::uint32_t s =
      std::bit_cast<std::uint32_t>(std::bit_cast<float>(au) +
                                   std::bit_cast<float>(0x3F00'0000u)) -
      0x3F00'0000u;
  const std::uint32_t out = au >= 0x3880'0000u ? n : s;
  return static_cast<std::uint16_t>(sign | out);
}

inline float Half::ToFloat(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t em = bits & 0x7FFFu;
  // Shift exponent and mantissa into place and rebias the exponent by
  // 127 - 15. A subnormal (exponent 0) gets one more exponent step, which
  // reads as 2^-14 * (1 + mant / 2^10), and subtracting 2^-14 leaves the
  // exact value mant * 2^-24 (Sterbenz: no rounding; the result is a normal
  // float, so no denormal ever reaches the FPU). Everything else subtracts
  // 0.0f, which is exact. The subtraction is unconditional: a
  // floating-point op under a condition would block vectorization.
  const std::uint32_t is_sub = em < 0x0400u;
  const float f = std::bit_cast<float>((em << 13) + ((112u + is_sub) << 23)) -
                  std::bit_cast<float>(is_sub * (113u << 23));
  // Exponent 31 (Inf/NaN) became the finite exponent 143 above; OR-ing in
  // the all-ones float exponent makes it 255 and keeps the NaN payload.
  const std::uint32_t inf_nan = em >= 0x7C00u ? 0x7F80'0000u : 0u;
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(f) | inf_nan |
                              sign);
}

}  // namespace xflow
