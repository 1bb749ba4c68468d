// printf-style string formatting and small string helpers (GCC 12 lacks
// std::format, so we provide a thin type-safe-enough wrapper).
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace xflow {

/// snprintf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string StrFormat(const char* fmt, ...);

/// Join elements with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Human-readable quantity with SI-ish suffix, e.g. 4.19e6 -> "4.2M".
std::string HumanCount(double value);

}  // namespace xflow
