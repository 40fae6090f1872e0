#include "util/cli_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace microrec {
namespace {

/// A parser shaped like the CLI's: one flag of every kind.
struct Flags {
  std::string checkpoint;
  double timeout = 0.0;
  uint64_t seed = 7;
  size_t max_configs = 0;
  bool fail_fast = false;

  FlagParser MakeParser() {
    FlagParser parser("microrec sweep <dir> <model> <source>");
    parser.AddString("checkpoint", &checkpoint, "JSONL checkpoint path");
    parser.AddDouble("timeout", &timeout, "per-config budget in seconds");
    parser.AddUint64("seed", &seed, "generator seed");
    parser.AddSize("max-configs", &max_configs, "cap on grid size");
    parser.AddBool("fail-fast", &fail_fast, "abort on first failure");
    return parser;
  }
};

TEST(FlagParserTest, ParsesEveryKindAndKeepsPositionals) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  Result<std::vector<std::string>> positional =
      parser.Parse({"out", "--checkpoint=ckpt.jsonl", "--timeout=2.5", "TN",
                    "--seed=42", "--max-configs=6", "--fail-fast", "R"});
  ASSERT_TRUE(positional.ok()) << positional.status().ToString();
  EXPECT_EQ(*positional, (std::vector<std::string>{"out", "TN", "R"}));
  EXPECT_EQ(flags.checkpoint, "ckpt.jsonl");
  EXPECT_EQ(flags.timeout, 2.5);
  EXPECT_EQ(flags.seed, 42u);
  EXPECT_EQ(flags.max_configs, 6u);
  EXPECT_TRUE(flags.fail_fast);
}

TEST(FlagParserTest, AbsentFlagsKeepDefaults) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  ASSERT_TRUE(parser.Parse({"only", "positionals"}).ok());
  EXPECT_EQ(flags.seed, 7u);
  EXPECT_EQ(flags.timeout, 0.0);
  EXPECT_FALSE(flags.fail_fast);
}

TEST(FlagParserTest, UnknownFlagIsInvalidArgumentWithUsageHint) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  // The exact typo the hand-rolled loops used to swallow silently.
  Result<std::vector<std::string>> r = parser.Parse({"--max-config=5"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unknown flag --max-config"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("usage:"), std::string::npos);
  EXPECT_NE(r.status().message().find("microrec sweep"), std::string::npos);
}

TEST(FlagParserTest, MalformedFlagRejected) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  Result<std::vector<std::string>> r = parser.Parse({"--=value"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("malformed"), std::string::npos);
}

TEST(FlagParserTest, DuplicateFlagRejectedNamingBothPositions) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  // Positionals count toward the 1-based positions, so the message points
  // at the actual argv slots of a long invocation.
  Result<std::vector<std::string>> r =
      parser.Parse({"out", "--seed=1", "TN", "--seed=2"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "duplicate flag --seed at positions 2 and 4"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("each flag may appear once"),
            std::string::npos);
}

TEST(FlagParserTest, DuplicateDetectionIsByNameNotSpelling) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  // Value-form and bare-form of the same bool flag still collide.
  Result<std::vector<std::string>> r =
      parser.Parse({"--fail-fast", "--fail-fast=true"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "duplicate flag --fail-fast at positions 1 and 2"),
            std::string::npos)
      << r.status().ToString();
  // A repeated unknown flag is still an error (whichever is diagnosed
  // first); a typo'd retry never parses silently.
  Result<std::vector<std::string>> unknown =
      parser.Parse({"--nope=1", "--nope=2"});
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, FlagRepeatedAfterDoubleDashIsPositionalNotDuplicate) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  Result<std::vector<std::string>> positional =
      parser.Parse({"--seed=1", "--", "--seed=2"});
  ASSERT_TRUE(positional.ok()) << positional.status().ToString();
  EXPECT_EQ(*positional, (std::vector<std::string>{"--seed=2"}));
  EXPECT_EQ(flags.seed, 1u);
}

TEST(FlagParserTest, GarbageNumericsRejected) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  // atof would have read these as 1.5 / 0 / 5.
  EXPECT_EQ(parser.Parse({"--timeout=1.5x"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Parse({"--max-configs=abc"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Parse({"--seed=5.0"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Parse({"--seed=-3"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parser.Parse({"--timeout="}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, ValueFlagWithoutValueRejected) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  Result<std::vector<std::string>> r = parser.Parse({"--checkpoint"});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("requires a value"), std::string::npos);
}

TEST(FlagParserTest, BoolForms) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  ASSERT_TRUE(parser.Parse({"--fail-fast=false"}).ok());
  EXPECT_FALSE(flags.fail_fast);
  ASSERT_TRUE(parser.Parse({"--fail-fast=true"}).ok());
  EXPECT_TRUE(flags.fail_fast);
  flags.fail_fast = false;
  ASSERT_TRUE(parser.Parse({"--fail-fast"}).ok());
  EXPECT_TRUE(flags.fail_fast);
  EXPECT_EQ(parser.Parse({"--fail-fast=maybe"}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  Result<std::vector<std::string>> positional =
      parser.Parse({"--fail-fast", "--", "--timeout=9", "-x"});
  ASSERT_TRUE(positional.ok()) << positional.status().ToString();
  EXPECT_EQ(*positional, (std::vector<std::string>{"--timeout=9", "-x"}));
  EXPECT_TRUE(flags.fail_fast);
  EXPECT_EQ(flags.timeout, 0.0);  // came after "--", stayed positional
}

TEST(FlagParserTest, HelpListsEveryFlag) {
  Flags flags;
  FlagParser parser = flags.MakeParser();
  std::string help = parser.Help();
  for (const char* name : {"--checkpoint", "--timeout", "--seed",
                           "--max-configs", "--fail-fast"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
  EXPECT_NE(help.find("usage: microrec sweep"), std::string::npos);
}

TEST(StrictParseTest, WholeTokenOrNothing) {
  double d = -1.0;
  EXPECT_TRUE(ParseDoubleStrict("0.25", &d));
  EXPECT_EQ(d, 0.25);
  for (const char* bad : {"", "abc", "1.5x", "1e999"}) {
    EXPECT_FALSE(ParseDoubleStrict(bad, &d)) << bad;
  }
  uint64_t u = 9;
  EXPECT_TRUE(ParseUint64Strict("42", &u));
  EXPECT_EQ(u, 42u);
  for (const char* bad :
       {"", "four", "-1", "+1", "3.0", "99999999999999999999"}) {
    EXPECT_FALSE(ParseUint64Strict(bad, &u)) << bad;
  }
  EXPECT_EQ(u, 42u);  // failures leave the output untouched
}

}  // namespace
}  // namespace microrec
