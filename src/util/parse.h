#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace netseer::util {

/// Parse all of `text` as a number of `out`'s type. The whole token must
/// be the number (no leading space or '+', nothing trailing), it must fit
/// the type (so an unsigned type refuses '-' and a 32-bit id refuses
/// 2^32), and a floating-point value must be finite. On failure `out` is
/// left as it was. Query specs, rules files and tool command lines all
/// read their numbers through this one parser.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace netseer::util
