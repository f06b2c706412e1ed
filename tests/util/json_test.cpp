#include "util/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace netseer::util {
namespace {

std::string as_json(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

TEST(JsonString, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(as_json("plain name.with_dots"), "\"plain name.with_dots\"");
  EXPECT_EQ(as_json("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(as_json("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(as_json("line\nnext"), "\"line\\nnext\"");
  EXPECT_EQ(as_json("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(as_json("cr\rlf"), "\"cr\\rlf\"");
  EXPECT_EQ(as_json("\b\f"), "\"\\b\\f\"");
  EXPECT_EQ(as_json(std::string("\x01 \x1f", 3)), "\"\\u0001 \\u001f\"");
  EXPECT_EQ(as_json(std::string("nul\0end", 7)), "\"nul\\u0000end\"");
  // Bytes from 0x20 up, UTF-8 included, are copied as they are.
  EXPECT_EQ(as_json("caf\xc3\xa9 \x7f"), "\"caf\xc3\xa9 \x7f\"");
}

TEST(JsonString, AppendsAfterWhatIsThere) {
  std::string out = "{\"k\":";
  append_json_string(out, "v");
  EXPECT_EQ(out, "{\"k\":\"v\"");
}

TEST(JsonDouble, NonFiniteValuesAreNull) {
  std::string out;
  append_json_double(out, 0.5);
  out += ',';
  append_json_double(out, std::numeric_limits<double>::infinity());
  out += ',';
  append_json_double(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "0.5,null,null");
}

}  // namespace
}  // namespace netseer::util
