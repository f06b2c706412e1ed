#include "util/cli.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "util/parse.h"

namespace netseer::util {
namespace {

/// An argv ("prog" plus `args`) for CommandLine::parse.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args) : pointers_{"prog"} {
    pointers_.insert(pointers_.end(), args);
  }

  int argc() const { return static_cast<int>(pointers_.size()); }
  const char* const* argv() const { return pointers_.data(); }

 private:
  std::vector<const char*> pointers_;
};

TEST(ParseNumber, AcceptsWholeTokensInRange) {
  int i = 0;
  EXPECT_TRUE(parse_number("-42", i));
  EXPECT_EQ(i, -42);
  std::uint32_t u32 = 0;
  EXPECT_TRUE(parse_number("4294967295", u32));
  EXPECT_EQ(u32, 4294967295u);
  double d = 0;
  EXPECT_TRUE(parse_number("0.25", d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(parse_number("1e3", d));
  EXPECT_EQ(d, 1000.0);
}

TEST(ParseNumber, RefusesOverflowSignsJunkAndNonFinite) {
  int i = 7;
  EXPECT_FALSE(parse_number("4294967297", i));  // would wrap to 1 through strtol
  EXPECT_FALSE(parse_number("2147483648", i));
  std::uint32_t u32 = 7;
  EXPECT_FALSE(parse_number("4294967296", u32));  // 2^32
  std::uint64_t u64 = 7;
  EXPECT_FALSE(parse_number("-1", u64));  // strtoull reads 2^64 - 1
  EXPECT_FALSE(parse_number("18446744073709551616", u64));
  for (const char* bad : {"", "12abc", "12 ", " 12", "+12", "0x10", "1.5"}) {
    EXPECT_FALSE(parse_number(bad, u64)) << "'" << bad << "'";
  }
  double d = 7;
  for (const char* bad : {"nan", "inf", "-inf", "infinity", "1e999", "0.5x", ""}) {
    EXPECT_FALSE(parse_number(bad, d)) << "'" << bad << "'";
  }
  // A refused value leaves the variable as it was.
  EXPECT_EQ(i, 7);
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 7u);
  EXPECT_EQ(d, 7.0);
}

TEST(CommandLine, ReadsSpaceAndEqualsForms) {
  std::string name = "none";
  int count = 1;
  double load = 0.5;
  std::uint64_t seed = 7;
  bool quiet = false;
  Argv args{"--name", "web", "--count=12", "--load", "0.75", "--seed=18446744073709551615",
            "--quiet"};
  CommandLine cli{"test"};
  cli.flag("name", &name, "a string")
      .flag("count", &count, "an int")
      .flag("load", &load, "a double")
      .flag("seed", &seed, "a u64")
      .flag("quiet", &quiet, "a switch")
      .parse(args.argc(), args.argv());
  EXPECT_EQ(name, "web");
  EXPECT_EQ(count, 12);
  EXPECT_EQ(load, 0.75);
  EXPECT_EQ(seed, 18446744073709551615u);
  EXPECT_TRUE(quiet);
}

TEST(CommandLine, AbsentFlagsKeepTheirDefaultsAndTheLastOccurrenceWins) {
  int count = 3;
  std::string name = "keep";
  Argv args{"--count", "4", "--count=5"};
  CommandLine cli{"test"};
  cli.flag("count", &count, "an int")
      .flag("name", &name, "a string")
      .parse(args.argc(), args.argv());
  EXPECT_EQ(count, 5);
  EXPECT_EQ(name, "keep");
}

TEST(CommandLine, RepeatableFlagsAndPositionalsCollectInOrder) {
  std::vector<std::string> passes;
  std::vector<std::string> inputs;
  std::string out;
  Argv args{"gen", "--pass", "a", "dir", "5000", "--pass=b", "-1", "--out", "-1", "group"};
  CommandLine cli{"test"};
  cli.flag("pass", &passes, "repeatable")
      .flag("out", &out, "a value that may look negative")
      .positionals(&inputs, "<command> <dir> [args]")
      .parse(args.argc(), args.argv());
  EXPECT_EQ(passes, (std::vector<std::string>{"a", "b"}));
  // Only "--" arguments are flags: "-1" is a positional, or a flag's value.
  EXPECT_EQ(inputs, (std::vector<std::string>{"gen", "dir", "5000", "-1", "group"}));
  EXPECT_EQ(out, "-1");
}

TEST(CommandLine, OptionalModeIsBareOrTheOneMode) {
  std::optional<std::string> verify;
  Argv none{};
  CommandLine{"test"}.flag("verify", &verify, "strict", "h").parse(none.argc(), none.argv());
  EXPECT_FALSE(verify);

  Argv bare{"--verify"};
  CommandLine{"test"}.flag("verify", &verify, "strict", "h").parse(bare.argc(), bare.argv());
  EXPECT_EQ(verify, "");

  Argv strict{"--verify=strict"};
  CommandLine{"test"}.flag("verify", &verify, "strict", "h").parse(strict.argc(), strict.argv());
  EXPECT_EQ(verify, "strict");
}

TEST(CommandLine, UsageListsEveryFlagWithItsDefault) {
  int duration_ms = 20;
  double load = 0.7;
  std::string dir;
  std::optional<std::string> verify;
  std::vector<std::string> passes;
  std::vector<std::string> inputs;
  CommandLine cli{"Summary line"};
  cli.flag("duration-ms", &duration_ms, "run length")
      .flag("load", &load, "utilization")
      .flag("dir", &dir, "a directory")
      .flag("verify", &verify, "strict", "verify first")
      .flag("pass", &passes, "one pass")
      .positionals(&inputs, "<file>...");
  const std::string usage = cli.usage();
  const auto has = [&usage](const char* text) { return usage.find(text) != std::string::npos; };
  EXPECT_EQ(usage.find("Summary line\n\nusage: "), 0u) << usage;
  EXPECT_TRUE(has(" [flags] <file>...\n")) << usage;
  EXPECT_TRUE(has("  --duration-ms=<value>      run length (default 20)\n")) << usage;
  EXPECT_TRUE(has("  --load=<value>             utilization (default 0.7)\n")) << usage;
  EXPECT_TRUE(has("  --dir=<value>              a directory\n")) << usage;
  EXPECT_TRUE(has("  --verify[=strict]          verify first\n")) << usage;
  EXPECT_TRUE(has("  --pass=<value>             one pass (repeatable)\n")) << usage;
  EXPECT_TRUE(has("  --help                     show this message\n")) << usage;
}

/// Parse `args` against a command line with one flag of each kind; any
/// usage error exits the process.
void parse_all(std::initializer_list<const char*> list) {
  int count = 0;
  std::uint32_t id = 0;
  std::uint64_t events = 0;
  double load = 0;
  bool quiet = false;
  std::string name;
  std::optional<std::string> verify;
  Argv args(list);
  CommandLine cli{"death test"};
  cli.flag("count", &count, "an int")
      .flag("id", &id, "a u32")
      .flag("events", &events, "a u64")
      .flag("load", &load, "a double")
      .flag("quiet", &quiet, "a switch")
      .flag("name", &name, "a string")
      .flag("verify", &verify, "strict", "a mode")
      .parse(args.argc(), args.argv());
}

TEST(CommandLineDeathTest, UsageErrorsExitTwoWithTheUsageOnStderr) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse_all({"--bogus"}), exits_2, "unknown flag '--bogus'.*usage: ");
  EXPECT_EXIT(parse_all({"--name"}), exits_2, "--name needs a value");
  EXPECT_EXIT(parse_all({"stray"}), exits_2, "unexpected argument 'stray'");
  EXPECT_EXIT(parse_all({"-x"}), exits_2, "unexpected argument '-x'");
  EXPECT_EXIT(parse_all({"--quiet=1"}), exits_2, "--quiet takes no value");
  EXPECT_EXIT(parse_all({"--verify=bogus"}), exits_2, "bad value 'bogus' for --verify");
  EXPECT_EXIT(parse_all({"--verify", "strict"}), exits_2, "unexpected argument 'strict'");
}

TEST(CommandLineDeathTest, NumbersThatDoNotFitTheirVariableExitTwo) {
  const auto exits_2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse_all({"--count", "4294967297"}), exits_2, "bad value '4294967297' for --count");
  EXPECT_EXIT(parse_all({"--id=4294967296"}), exits_2, "bad value '4294967296' for --id");
  EXPECT_EXIT(parse_all({"--events", "-1"}), exits_2, "bad value '-1' for --events");
  EXPECT_EXIT(parse_all({"--events", "12abc"}), exits_2, "bad value '12abc' for --events");
  EXPECT_EXIT(parse_all({"--load", "nan"}), exits_2, "bad value 'nan' for --load");
  EXPECT_EXIT(parse_all({"--load=inf"}), exits_2, "bad value 'inf' for --load");
}

TEST(CommandLineDeathTest, HelpExitsZeroEvenAfterOtherFlags) {
  EXPECT_EXIT(parse_all({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse_all({"--count", "3", "-h"}), ::testing::ExitedWithCode(0), "");
}

TEST(CommandLineDeathTest, FailIsAUsageError) {
  const CommandLine cli{"test"};
  EXPECT_EXIT(cli.fail("--store-dir is required"), ::testing::ExitedWithCode(2),
              "--store-dir is required\n\ntest\n\nusage: ");
}

}  // namespace
}  // namespace netseer::util
