#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/parse.h"

namespace netseer::util {

/// The one command-line parser of every program in the tree. Construct it
/// with the program's summary, bind flags (and, for tools that take them,
/// positional arguments) to variables, then call parse():
///
///   int duration_ms = 20;
///   util::CommandLine cli{"Figure 9 — event coverage per monitor"};
///   cli.flag("duration-ms", &duration_ms, "simulated run length").parse(argc, argv);
///
/// Only arguments that start with "--", and "-h", are flags, so "-1" is a
/// positional or a value. `--name value` and `--name=value` both work. A
/// number goes through parse_number(): it must be all digits of its
/// type's range, so "-1" into an unsigned or 2^32 into a 32-bit variable
/// is refused. A variable keeps its initial value, the default --help
/// shows, when its flag is absent; a flag given twice keeps the last.
///
/// The exit contract every program shares: --help (or -h) prints the
/// usage to stdout and exits 0; a usage error (unknown flag, missing or
/// bad value, a stray positional, or the program's own fail()) prints one
/// message and the usage to stderr and exits 2. Status 1 is left to the
/// program, for a run that failed.
class CommandLine {
 public:
  explicit CommandLine(std::string summary);

  CommandLine& flag(std::string_view name, std::string* out, std::string_view help);
  /// A value-less switch: presence sets *out to true.
  CommandLine& flag(std::string_view name, bool* out, std::string_view help);
  /// A repeatable flag: every occurrence appends its value.
  CommandLine& flag(std::string_view name, std::vector<std::string>* out, std::string_view help);
  /// A switch with an optional inline mode: `--name` sets *out to "" and
  /// `--name=<mode>` to `mode`; any other value is a usage error.
  CommandLine& flag(std::string_view name, std::optional<std::string>* out,
                    std::string_view mode, std::string_view help);
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  CommandLine& flag(std::string_view name, T* out, std::string_view help) {
    return add(name, Arity::kOne, help, show_number(*out),
               [out](std::string_view text) { return parse_number(text, *out); });
  }

  /// Collect every argument that is not a flag, in order, into *out;
  /// `synopsis` names them in the usage line ("<command> <dir> [args]").
  /// Without this, a positional argument is a usage error.
  CommandLine& positionals(std::vector<std::string>* out, std::string_view synopsis);

  /// Parse argv[1..argc): set every bound variable, or exit on --help or
  /// a usage error.
  CommandLine& parse(int argc, const char* const* argv);

  /// A usage error found after parse() (a missing required flag, a bad
  /// combination): print `message` and the usage to stderr, exit 2.
  [[noreturn]] void fail(std::string_view message) const;

  /// The generated --help text.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Arity { kNone, kOne, kOptional };
  struct Spec {
    std::string name;  // without the leading "--"
    Arity arity;
    std::string value_hint;  // after the name in the usage: "=<value>", "[=strict]"
    std::string help;
    std::function<bool(std::string_view)> set;  // false: the value is bad
  };

  template <typename T>
  static std::string show_number(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      return show_double(static_cast<double>(value));
    } else {
      return std::to_string(value);
    }
  }
  static std::string show_double(double value);

  CommandLine& add(std::string_view name, Arity arity, std::string_view help,
                   const std::string& shown_default, std::function<bool(std::string_view)> set);

  std::string summary_;
  std::string program_ = "netseer";
  std::vector<Spec> specs_;
  std::vector<std::string>* positionals_ = nullptr;
  std::string synopsis_;
};

}  // namespace netseer::util
