#include "serve/protocol.h"

#include <cfloat>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace otfair::serve {
namespace {

TEST(ProtocolTest, ParsesRepairLine) {
  auto request = ParseRequestLine("repair 3 17 1 0 0.25 -1.5", 2);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->kind, RequestKind::kRepair);
  EXPECT_EQ(request->row.session_id, 3u);
  EXPECT_EQ(request->row.row_index, 17u);
  EXPECT_EQ(request->row.u, 1);
  EXPECT_EQ(request->row.s, 0);
  ASSERT_EQ(request->row.features.size(), 2u);
  EXPECT_EQ(request->row.features[0], 0.25);
  EXPECT_EQ(request->row.features[1], -1.5);
}

TEST(ProtocolTest, ToleratesExtraWhitespace) {
  auto request = ParseRequestLine("  repair  0\t0  0 1   1.0  2.0 ", 2);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->row.s, 1);
}

TEST(ProtocolTest, RejectsMalformedRepairLines) {
  EXPECT_FALSE(ParseRequestLine("", 2).ok());
  EXPECT_FALSE(ParseRequestLine("repair", 2).ok());
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0", 2).ok());          // missing feature
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0 2.0 3.0", 2).ok());  // extra feature
  EXPECT_FALSE(ParseRequestLine("repair 0 0 2 0 1.0 2.0", 2).ok());      // u out of range
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0 abc", 2).ok());      // bad number
  EXPECT_FALSE(ParseRequestLine("repair x 0 0 1 1.0 2.0", 2).ok());      // bad session
  EXPECT_FALSE(ParseRequestLine("repair -1 0 0 1 1.0 2.0", 2).ok());     // negative session
  EXPECT_FALSE(ParseRequestLine("repair 0 -3 0 1 1.0 2.0", 2).ok());     // negative row
  EXPECT_FALSE(ParseRequestLine("unknown-verb 1 2 3", 2).ok());
}

TEST(ProtocolTest, ParsesControlVerbs) {
  EXPECT_EQ(ParseRequestLine("metrics", 2)->kind, RequestKind::kMetrics);
  EXPECT_EQ(ParseRequestLine("health", 2)->kind, RequestKind::kHealth);
  EXPECT_EQ(ParseRequestLine("quit", 2)->kind, RequestKind::kQuit);
  auto reload = ParseRequestLine("reload /tmp/plan.bin", 2);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->kind, RequestKind::kReload);
  EXPECT_EQ(reload->plan_path, "/tmp/plan.bin");
  EXPECT_FALSE(ParseRequestLine("reload", 2).ok());
  EXPECT_FALSE(ParseRequestLine("reload a b", 2).ok());
  EXPECT_EQ(ParseRequestLine("checkpoint", 2)->kind, RequestKind::kCheckpoint);
  EXPECT_EQ(ParseRequestLine("  checkpoint  ", 2)->kind, RequestKind::kCheckpoint);
  // No operands: a checkpoint request names nothing.
  EXPECT_FALSE(ParseRequestLine("checkpointing", 2).ok());
}

TEST(ProtocolTest, VerbSetMatchesTheParser) {
  for (const char* verb : {"repair", "metrics", "health", "reload", "checkpoint", "quit"})
    EXPECT_TRUE(IsProtocolVerb(verb)) << verb;
  EXPECT_FALSE(IsProtocolVerb("bogus-verb"));
  EXPECT_FALSE(IsProtocolVerb("REPAIR"));
  EXPECT_FALSE(IsProtocolVerb(""));
  // The parser rejects exactly what the set rejects.
  EXPECT_FALSE(ParseRequestLine("bogus-verb", 2).ok());
  EXPECT_FALSE(ParseRequestLine("REPAIR 0 0 0 1 1.0 2.0", 2).ok());
}

TEST(ProtocolTest, FormatsOkResponseWithRoundTripPrecision) {
  RowResponse response;
  response.session_id = 4;
  response.row_index = 9;
  response.repaired = {0.1, -2.0};
  const std::string line = FormatRowResponse(response);
  EXPECT_EQ(line.substr(0, 7), "ok 4 9 ");
  // %.17g survives a strtod round trip bit-exactly.
  double parsed = 0.0;
  ASSERT_EQ(std::sscanf(line.c_str(), "ok 4 9 %lf", &parsed), 1);
  EXPECT_EQ(parsed, 0.1);
}

TEST(ProtocolTest, FeaturesUseTheCsvNumberGrammar) {
  // Hex, which strtod read, is rejected.
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 0x1p3 2.0", 2).ok());
  // Subnormals, on which strtod set ERANGE, are accepted, and a response
  // prints them back exactly.
  auto request =
      ParseRequestLine("repair 5 6 0 1 4.9406564584124654e-324 -2.2250738585072009e-308", 2);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->row.features[0], std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(request->row.features[1], -std::nextafter(DBL_MIN, 0.0));
  RowResponse response;
  response.session_id = 5;
  response.row_index = 6;
  response.repaired = request->row.features;
  EXPECT_EQ(FormatRowResponse(response),
            "ok 5 6 4.9406564584124654e-324 -2.2250738585072009e-308");
}

TEST(ProtocolTest, FormatsErrorResponses) {
  RowResponse response;
  response.session_id = 2;
  response.row_index = 5;
  response.status = common::Status::InvalidArgument("bad row");
  EXPECT_EQ(FormatRowResponse(response), "err 2 5 INVALID_ARGUMENT bad row");
  EXPECT_EQ(FormatErrorLine(common::Status::Unavailable("full")),
            "err - - UNAVAILABLE full");
}

TEST(ProtocolMultiGroupTest, AcceptsLabelsWithinConfiguredLevels) {
  auto request = ParseRequestLine("repair 1 2 2 3 0.5 1.5", 2, /*u_levels=*/3,
                                  /*s_levels=*/4);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->row.u, 2);
  EXPECT_EQ(request->row.s, 3);
}

TEST(ProtocolMultiGroupTest, RejectsLabelsBeyondConfiguredLevels) {
  EXPECT_FALSE(ParseRequestLine("repair 1 2 3 0 0.5 1.5", 2, 3, 4).ok());  // u = |U|
  EXPECT_FALSE(ParseRequestLine("repair 1 2 0 4 0.5 1.5", 2, 3, 4).ok());  // s = |S|
  // The default bounds stay binary.
  EXPECT_FALSE(ParseRequestLine("repair 1 2 2 0 0.5 1.5", 2).ok());
}

// --- Hardening gauntlet -----------------------------------------------------
//
// Every case must come back as a clean InvalidArgument status — never a
// crash, throw, or silently coerced field. The table covers truncation,
// out-of-range labels, non-finite payloads, numeric-overflow spellings,
// binary junk, and oversized lines.

struct GarbageCase {
  const char* name;
  std::string line;
};

std::string RepeatChar(char c, size_t n) { return std::string(n, c); }

TEST(ProtocolHardeningTest, GarbageLinesNeverCrashAndReportStructuredErrors) {
  const GarbageCase kCases[] = {
      {"empty", ""},
      {"whitespace_only", "   \t  \t "},
      {"truncated_verb", "rep"},
      {"truncated_repair_no_fields", "repair"},
      {"truncated_repair_mid_header", "repair 0 0"},
      {"truncated_repair_missing_last_feature", "repair 0 0 0 1 1.0"},
      {"nan_feature", "repair 0 0 0 1 nan 2.0"},
      {"nan_uppercase", "repair 0 0 0 1 NaN 2.0"},
      {"inf_feature", "repair 0 0 0 1 1.0 inf"},
      {"negative_inf", "repair 0 0 0 1 -inf 2.0"},
      {"infinity_spelled_out", "repair 0 0 0 1 Infinity 2.0"},
      {"overflowing_double", "repair 0 0 0 1 1e999 2.0"},
      {"hex_session", "repair 0x10 0 0 1 1.0 2.0"},
      {"float_row_index", "repair 0 1.5 0 1 1.0 2.0"},
      {"u_out_of_range", "repair 0 0 9 0 1.0 2.0"},
      {"s_out_of_range", "repair 0 0 0 9 1.0 2.0"},
      {"huge_u", "repair 0 0 18446744073709551615 0 1.0 2.0"},
      {"overflow_session", "repair 99999999999999999999999 0 0 1 1.0 2.0"},
      {"trailing_junk_on_number", "repair 0 0 0 1 1.0x 2.0"},
      {"embedded_nul_like_junk", std::string("repair 0 0 0 1 1.0 2.0\x01\x02")},
      {"binary_junk_verb", std::string("\xff\xfe\x00garbage", 10)},
      {"reload_no_path", "reload"},
      {"reload_two_paths", "reload a b"},
      {"unknown_verb", "destroy everything"},
      {"feature_is_binary_noise", "repair 0 0 0 1 \x07\x1b[31m 2.0"},
      {"oversized_line", "repair 0 0 0 1 " + RepeatChar('9', kMaxRequestLineBytes + 64)},
      {"oversized_whitespace", RepeatChar(' ', kMaxRequestLineBytes + 1)},
  };
  for (const GarbageCase& c : kCases) {
    auto request = ParseRequestLine(c.line, 2);
    ASSERT_FALSE(request.ok()) << "case " << c.name << " was accepted";
    EXPECT_EQ(request.status().code(), common::StatusCode::kInvalidArgument)
        << "case " << c.name;
    // The error must render as a single sane response line: no control
    // characters leaked from the input, no unbounded echo.
    const std::string rendered = FormatErrorLine(request.status());
    EXPECT_LT(rendered.size(), 512u) << "case " << c.name;
    for (char ch : rendered)
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20)
          << "case " << c.name << " leaked a control character";
  }
}

TEST(ProtocolHardeningTest, BadFeatureEchoIsTruncatedAndSanitized) {
  const std::string junk(500, 'z');
  auto request = ParseRequestLine("repair 0 0 0 1 " + junk + " 2.0", 2);
  ASSERT_FALSE(request.ok());
  // At most a 32-char prefix of the offending token is echoed.
  EXPECT_LT(request.status().message().size(), 128u);
  EXPECT_NE(request.status().message().find("zzzz"), std::string::npos);
}

TEST(ProtocolHardeningTest, MaxSizedValidLineStillParses) {
  // The ceiling rejects oversized lines, not long-but-valid ones.
  std::string line = "repair 0 0 0 1 1.0 2.0";
  line += RepeatChar(' ', kMaxRequestLineBytes - line.size());
  EXPECT_TRUE(ParseRequestLine(line, 2).ok());
  line += ' ';
  EXPECT_FALSE(ParseRequestLine(line, 2).ok());
}

}  // namespace
}  // namespace otfair::serve
