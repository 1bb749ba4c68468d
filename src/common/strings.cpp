#include "common/strings.hpp"

#include <cmath>
#include <cstdio>

namespace xflow {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string HumanCount(double value) {
  const double a = std::fabs(value);
  if (a >= 1e9) return StrFormat("%.2fG", value / 1e9);
  if (a >= 1e6) return StrFormat("%.1fM", value / 1e6);
  if (a >= 1e3) return StrFormat("%.1fK", value / 1e3);
  return StrFormat("%.0f", value);
}

}  // namespace xflow
