#pragma once

#include <string>
#include <string_view>

namespace netseer::util {

/// Append `s` to `out` as a quoted JSON string: quote, backslash and the
/// control characters with a short escape get it (\n \t \r \b \f), any
/// other byte below 0x20 becomes \u00XX, and the rest is copied as is.
/// The one escaper of every JSON writer in the tree.
void append_json_string(std::string& out, std::string_view s);

/// Append `v` with 17 significant digits; JSON has no Infinity or NaN, so
/// a non-finite value is written as null.
void append_json_double(std::string& out, double v);

}  // namespace netseer::util
