#include "common/flags.h"

#include <gtest/gtest.h>

namespace otfair::common {
namespace {

FlagParser MakeParser(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser flags = MakeParser({"--trials=200", "--seed=42"});
  EXPECT_EQ(flags.GetInt("trials", 0), 200);
  EXPECT_EQ(flags.GetUint64("seed", 0), 42u);
}

TEST(FlagsTest, SpaceSyntax) {
  FlagParser flags = MakeParser({"--name", "adult"});
  EXPECT_EQ(flags.GetString("name", ""), "adult");
}

TEST(FlagsTest, BareBooleanFlag) {
  FlagParser flags = MakeParser({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
}

TEST(FlagsTest, BoolParsesCommonSpellings) {
  EXPECT_TRUE(MakeParser({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(MakeParser({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(MakeParser({"--x=yes"}).GetBool("x", false));
  EXPECT_TRUE(MakeParser({"--x=on"}).GetBool("x", false));
  EXPECT_FALSE(MakeParser({"--x=false"}).GetBool("x", true));
  EXPECT_FALSE(MakeParser({"--x=0"}).GetBool("x", true));
  EXPECT_FALSE(MakeParser({"--x=no"}).GetBool("x", true));
  EXPECT_FALSE(MakeParser({"--x=off"}).GetBool("x", true));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  FlagParser flags = MakeParser({});
  EXPECT_EQ(flags.GetInt("trials", 50), 50);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.05), 0.05);
  EXPECT_EQ(flags.GetString("name", "default"), "default");
  EXPECT_FALSE(flags.Has("trials"));
}

TEST(FlagsTest, DoubleParsing) {
  FlagParser flags = MakeParser({"--t=0.75"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("t", 0.0), 0.75);
  EXPECT_EQ(MakeParser({"--eps=1e-5"}).GetDouble("eps", 0.0), 1e-5);
  EXPECT_EQ(MakeParser({"--eps=-0.25"}).GetDouble("eps", 0.0), -0.25);
  EXPECT_EQ(MakeParser({"--eps=3"}).GetDouble("eps", 0.0), 3.0);
}

TEST(FlagsTest, IntListParsing) {
  FlagParser flags = MakeParser({"--sizes=25,50,100"});
  EXPECT_EQ(flags.GetIntList("sizes", {}), (std::vector<int>{25, 50, 100}));
}

TEST(FlagsTest, IntListDefault) {
  FlagParser flags = MakeParser({});
  EXPECT_EQ(flags.GetIntList("sizes", {5, 10}), (std::vector<int>{5, 10}));
}

TEST(FlagsTest, PositionalArguments) {
  FlagParser flags = MakeParser({"input.csv", "--n=3", "output.csv"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "input.csv");
  EXPECT_EQ(flags.positional()[1], "output.csv");
}

TEST(FlagsTest, ValidateAcceptsKnownFlags) {
  FlagParser flags = MakeParser({"--trials=5", "--seed=1"});
  EXPECT_TRUE(flags.Validate({"trials", "seed", "unused"}).ok());
}

TEST(FlagsTest, ValidateRejectsUnknownFlags) {
  FlagParser flags = MakeParser({"--trails=5"});  // typo
  Status status = flags.Validate({"trials"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("trails"), std::string::npos);
}

TEST(FlagsTest, DashAndUnderscoreSpellTheSameFlag) {
  for (const char* arg : {"--net-threads=3", "--net_threads=3"}) {
    SCOPED_TRACE(arg);
    FlagParser flags = MakeParser({arg});
    EXPECT_EQ(flags.GetInt("net-threads", 1), 3);
    EXPECT_EQ(flags.GetInt("net_threads", 1), 3);
  }
}

TEST(FlagsTest, BareBooleanAnswersUnderEitherSpelling) {
  for (const char* arg : {"--self-heal", "--self_heal"}) {
    SCOPED_TRACE(arg);
    FlagParser flags = MakeParser({arg});
    EXPECT_TRUE(flags.Has("self-heal"));
    EXPECT_TRUE(flags.Has("self_heal"));
    EXPECT_TRUE(flags.GetBool("self-heal", false));
    EXPECT_TRUE(flags.GetBool("self_heal", false));
  }
}

TEST(FlagsTest, LaterSpellingWins) {
  FlagParser flags = MakeParser({"--max-batch=8", "--max_batch=16"});
  EXPECT_EQ(flags.GetInt("max-batch", 0), 16);
}

TEST(FlagsTest, ValidateMatchesAcrossSpellings) {
  EXPECT_TRUE(MakeParser({"--net-threads=2"}).Validate({"net_threads"}).ok());
  EXPECT_TRUE(MakeParser({"--n_research=2"}).Validate({"n-research"}).ok());
  // The message names the flag as typed.
  Status status = MakeParser({"--no-such-flag"}).Validate({"no_such"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--no-such-flag"), std::string::npos) << status.message();
}

TEST(FlagsTest, IntegersTakeTheirTypesWholeRange) {
  EXPECT_EQ(MakeParser({"--n=-7"}).GetInt("n", 0), -7);
  EXPECT_EQ(MakeParser({"--n=2147483647"}).GetInt("n", 0), 2147483647);
  EXPECT_EQ(MakeParser({"--n=-2147483648"}).GetInt("n", 0), -2147483647 - 1);
  EXPECT_EQ(MakeParser({"--seed=18446744073709551615"}).GetUint64("seed", 0),
            18446744073709551615u);
  EXPECT_EQ(MakeParser({"--sizes=-1,0,7"}).GetIntList("sizes", {}),
            (std::vector<int>{-1, 0, 7}));
}

/// The regex for `error: --<name>: '<value>' is not a valid <kind>`.
std::string BadValueMessage(const std::string& name, const std::string& value,
                            const std::string& kind) {
  std::string escaped;
  for (char c : value) {
    if (std::string(".[]{}()*+?^$|\\").find(c) != std::string::npos) escaped += '\\';
    escaped += c;
  }
  return "error: --" + name + ": '" + escaped + "' is not a valid " + kind;
}

// A malformed value is a usage error: the getter names the flag and the
// value, and exits 2.
TEST(FlagsTest, MalformedIntExits) {
  for (const char* value : {"abc", "1e3", "12x", "", " 5", "+5", "1.5", "2147483648"}) {
    const std::string arg = std::string("--n=") + value;
    EXPECT_EXIT(MakeParser({arg.c_str()}).GetInt("n", 0), ::testing::ExitedWithCode(2),
                BadValueMessage("n", value, "integer"))
        << arg;
  }
}

TEST(FlagsTest, MalformedUint64Exits) {
  for (const char* value : {"-1", "abc", "18446744073709551616", "0x10"}) {
    const std::string arg = std::string("--seed=") + value;
    EXPECT_EXIT(MakeParser({arg.c_str()}).GetUint64("seed", 0), ::testing::ExitedWithCode(2),
                BadValueMessage("seed", value, "unsigned integer"))
        << arg;
  }
}

TEST(FlagsTest, MalformedDoubleExits) {
  for (const char* value : {"abc", "nan", "inf", "0x1p3", "1.5x", "1e400", ""}) {
    const std::string arg = std::string("--strength=") + value;
    EXPECT_EXIT(MakeParser({arg.c_str()}).GetDouble("strength", 1.0),
                ::testing::ExitedWithCode(2),
                BadValueMessage("strength", value, "finite decimal"))
        << arg;
  }
}

TEST(FlagsTest, MalformedBoolExits) {
  for (const char* value : {"maybe", "TRUE", "2", ""}) {
    const std::string arg = std::string("--json=") + value;
    EXPECT_EXIT(MakeParser({arg.c_str()}).GetBool("json", false), ::testing::ExitedWithCode(2),
                BadValueMessage("json", value, "boolean"))
        << arg;
  }
}

TEST(FlagsTest, MalformedIntListExits) {
  for (const char* value : {"25,abc", "25,,50", "1e3", ""}) {
    const std::string arg = std::string("--sizes=") + value;
    EXPECT_EXIT(MakeParser({arg.c_str()}).GetIntList("sizes", {}), ::testing::ExitedWithCode(2),
                BadValueMessage("sizes", value, "integer list"))
        << arg;
  }
}

TEST(FlagsTest, ProgramNameCaptured) {
  FlagParser flags = MakeParser({});
  EXPECT_EQ(flags.program_name(), "prog");
}

}  // namespace
}  // namespace otfair::common
