#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ldga {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"program"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, NamedValues) {
  const auto args = parse({"--snps", "51", "--backend", "farm"});
  EXPECT_EQ(args.get_int("snps", 0), 51);
  EXPECT_EQ(args.get("backend", ""), "farm");
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({});
  EXPECT_EQ(args.get_int("snps", 42), 42);
  EXPECT_EQ(args.get("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.5), 0.5);
  EXPECT_FALSE(args.get_bool("trace"));
}

TEST(Cli, BooleanFlagForms) {
  EXPECT_TRUE(parse({"--trace"}).get_bool("trace"));
  EXPECT_TRUE(parse({"--trace", "true"}).get_bool("trace"));
  EXPECT_TRUE(parse({"--trace", "1"}).get_bool("trace"));
  EXPECT_FALSE(parse({"--trace", "false"}).get_bool("trace"));
  EXPECT_FALSE(parse({"--trace", "no"}).get_bool("trace"));
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const auto args = parse({"--trace", "--snps", "10"});
  EXPECT_TRUE(args.get_bool("trace"));
  EXPECT_EQ(args.get_int("snps", 0), 10);
}

TEST(Cli, Positional) {
  const auto args = parse({"input.txt", "--snps", "5", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
}

TEST(Cli, DoubleParsing) {
  const auto args = parse({"--rate", "0.75"});
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.75);
}

TEST(Cli, BadNumberThrows) {
  EXPECT_THROW(parse({"--snps", "abc"}).get_int("snps", 0), ConfigError);
  EXPECT_THROW(parse({"--rate", "x"}).get_double("rate", 0.0), ConfigError);
  EXPECT_THROW(parse({"--flag", "maybe"}).get_bool("flag"), ConfigError);
}

TEST(Cli, CountsAreRangeChecked) {
  EXPECT_EQ(parse({}).get_count("workers", 4), 4u);
  EXPECT_EQ(parse({"--workers", "0"}).get_count("workers", 4), 0u);
  EXPECT_EQ(parse({"--workers", "4294967295"}).get_count("workers", 4),
            4294967295u);
  // -1 must not wrap around to 2^32 - 1.
  EXPECT_THROW(parse({"--workers", "-1"}).get_count("workers", 4),
               ConfigError);
  EXPECT_THROW(parse({"--workers", "4294967296"}).get_count("workers", 4),
               ConfigError);
  EXPECT_THROW(parse({"--workers", "x"}).get_count("workers", 4),
               ConfigError);
}

TEST(Cli, UnusedFlagsAreReported) {
  const auto args = parse({"--known", "1", "--typo", "2"});
  args.get_int("known", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, HasMarksQueried) {
  const auto args = parse({"--present"});
  EXPECT_TRUE(args.has("present"));
  EXPECT_FALSE(args.has("absent"));
  EXPECT_TRUE(args.unused().empty());
}

TEST(Cli, BareDashesThrow) {
  EXPECT_THROW(parse({"--"}), ConfigError);
}

}  // namespace
}  // namespace ldga
