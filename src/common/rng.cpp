#include "common/rng.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace xflow {

float DropoutKeepScale(float drop_probability) {
  if (!(drop_probability >= 0.0f && drop_probability <= 1.0f)) {
    require(false, StrFormat("dropout probability %g is outside [0, 1]",
                             static_cast<double>(drop_probability)));
  }
  return drop_probability < 1.0f ? 1.0f / (1.0f - drop_probability) : 0.0f;
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E37'79B9'7F4A'7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBull;
  return z ^ (z >> 31);
}

}  // namespace xflow
