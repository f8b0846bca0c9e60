#include "common/string_util.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::common {
namespace {

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitSingleToken) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  const std::vector<std::string> tokens = {"x", "y", "z"};
  EXPECT_EQ(Join(tokens, ","), "x,y,z");
  EXPECT_EQ(Split(Join(tokens, ","), ','), tokens);
}

TEST(StringUtilTest, JoinEmpty) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(StrFormat("%.2f", 2.5), "2.50");
  EXPECT_EQ(StrFormat("%s", "plain"), "plain");
}

TEST(StringUtilTest, StrFormatLongOutput) {
  const std::string long_str(500, 'x');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 500u);
}

/// Checks that `value` formats as printf("%.17g") and parses back to the
/// same bits.
void ExpectDouble17RoundTrip(double value) {
  char printed[32];
  std::snprintf(printed, sizeof(printed), "%.17g", value);
  char buf[kMaxDouble17Chars];
  const std::string formatted(buf, AppendDouble17(buf, value));
  ASSERT_EQ(formatted, printed);
  double parsed = 0.0;
  ASSERT_TRUE(ParseFiniteDecimal(formatted, &parsed)) << formatted;
  ASSERT_EQ(std::memcmp(&parsed, &value, sizeof(value)), 0) << formatted;
}

TEST(StringUtilTest, Double17MatchesPrintfAndRoundTripsBitExact) {
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {
      0.0, 1.0, 42.0, 1e15, 1e16, 1e17, 9007199254740993.0, 123456789.0, 0.1, 1.0 / 3.0,
      DBL_EPSILON, DBL_MIN, DBL_MAX, kDenormMin, DBL_MIN / 3.0, std::nextafter(DBL_MIN, 0.0)};
  // Exact 17-digit ties round half to even; %g switches between fixed and
  // exponent layout at 1e-4 and 1e17.
  const std::pair<double, std::string> kPinned[] = {
      {1234567890123456.25, "1234567890123456.2"},
      {1234567890123456.75, "1234567890123456.8"},
      {1e-4, "0.0001"},
      {1e-5, "1.0000000000000001e-05"},
      {std::nextafter(1e16, 0.0), "9999999999999998"},
      {std::nextafter(1e17, 0.0), "99999999999999984"}};
  for (const auto& [value, text] : kPinned) {
    char buf[kMaxDouble17Chars];
    EXPECT_EQ(std::string(buf, AppendDouble17(buf, value)), text);
    values.push_back(value);
  }
  // Every power of ten from 1e-20 to 1e20, with both neighbours.
  for (int p = -20; p <= 20; ++p) {
    const double ten = std::strtod(("1e" + std::to_string(p)).c_str(), nullptr);
    values.insert(values.end(), {ten, std::nextafter(ten, 0.0), std::nextafter(ten, DBL_MAX)});
  }
  Rng rng(17);
  // Random mantissas in every binade from two below the exact integer
  // kernel's range (biased exponents 970..1079) to two above it.
  for (uint64_t exponent = 968; exponent <= 1081; ++exponent) {
    for (int i = 0; i < 1000; ++i) {
      const uint64_t bits = exponent << 52 | (rng.Next64() & ((uint64_t{1} << 52) - 1));
      double value = 0.0;
      std::memcpy(&value, &bits, sizeof(value));
      values.push_back(value);
    }
  }
  for (const double value : values) {
    ExpectDouble17RoundTrip(value);
    ExpectDouble17RoundTrip(-value);
  }
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng.Next64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) ExpectDouble17RoundTrip(value);
  }
}

}  // namespace
}  // namespace otfair::common
