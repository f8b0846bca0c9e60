#include "data/csv.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/string_util.h"

#ifndef OTFAIR_GOLDEN_DIR
#define OTFAIR_GOLDEN_DIR "tests/data/golden"
#endif

namespace otfair::data {
namespace {

using common::Matrix;

class CsvTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(CsvTest, RoundTripWithOutcome) {
  Matrix f = Matrix::FromRows({{1.5, -2.25}, {3.0, 4.125}});
  auto original = Dataset::Create(f, {0, 1}, {1, 0}, {"age", "hours"}, {1, 0});
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(WriteCsv(*original, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->dim(), 2u);
  EXPECT_TRUE(loaded->has_outcome());
  EXPECT_EQ(loaded->feature_names(), (std::vector<std::string>{"age", "hours"}));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded->s(i), original->s(i));
    EXPECT_EQ(loaded->u(i), original->u(i));
    EXPECT_EQ(loaded->y(i), original->y(i));
    for (size_t k = 0; k < 2; ++k)
      EXPECT_DOUBLE_EQ(loaded->feature(i, k), original->feature(i, k));
  }
}

TEST_F(CsvTest, RoundTripWithoutOutcome) {
  Matrix f = Matrix::FromRows({{7.0}});
  auto original = Dataset::Create(f, {1}, {1}, {"x"});
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("no_outcome.csv");
  ASSERT_TRUE(WriteCsv(*original, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_outcome());
  EXPECT_DOUBLE_EQ(loaded->feature(0, 0), 7.0);
}

TEST_F(CsvTest, ReadHandWrittenFile) {
  const std::string path = TempPath("hand.csv");
  WriteFile(path, "s,u,age,hours\n0,1,25.5,40\n1,0,60,37.5\n");
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->feature(1, 1), 37.5);
  EXPECT_EQ(loaded->u(0), 1);
}

TEST_F(CsvTest, SkipsBlankLines) {
  const std::string path = TempPath("blank.csv");
  WriteFile(path, "s,u,x\n0,1,1.0\n\n1,0,2.0\n\n");
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
}

TEST_F(CsvTest, TrimsWhitespace) {
  const std::string path = TempPath("ws.csv");
  WriteFile(path, "s, u, x\n 0 , 1 , 3.5 \n");
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->feature(0, 0), 3.5);
}

TEST_F(CsvTest, RejectsBadHeader) {
  const std::string path = TempPath("badheader.csv");
  WriteFile(path, "u,s,x\n1,0,1.0\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, RejectsHeaderWithoutFeatures) {
  const std::string path = TempPath("nofeat.csv");
  WriteFile(path, "s,u\n0,1\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, AcceptsCategoricalLabels) {
  // Multi-level s/u columns load with inferred cardinalities.
  const std::string path = TempPath("multilabel.csv");
  WriteFile(path, "s,u,x\n2,0,1.0\n0,3,2.0\n1,1,3.0\n");
  auto d = ReadCsv(path);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->s_levels(), 3u);
  EXPECT_EQ(d->u_levels(), 4u);
  EXPECT_EQ(d->s(0), 2);
  EXPECT_EQ(d->u(1), 3);
}

TEST_F(CsvTest, RejectsBadLabels) {
  // Negative and non-integer labels are still rejected.
  const std::string neg = TempPath("neglabel.csv");
  WriteFile(neg, "s,u,x\n-1,0,1.0\n");
  EXPECT_FALSE(ReadCsv(neg).ok());
  const std::string frac = TempPath("fraclabel.csv");
  WriteFile(frac, "s,u,x\n0.5,0,1.0\n");
  EXPECT_FALSE(ReadCsv(frac).ok());
  // Outcomes stay binary.
  const std::string bady = TempPath("bady.csv");
  WriteFile(bady, "s,u,y,x\n0,0,2,1.0\n");
  EXPECT_FALSE(ReadCsv(bady).ok());
}

TEST_F(CsvTest, RoundTripPreservesDeclaredLevels) {
  // Levels inference cannot recover — an unobserved top s level and a
  // single declared u stratum — survive the CSV round trip via the
  // level-comment line.
  common::Matrix f = common::Matrix::FromRows({{1.0}, {2.0}});
  auto d = Dataset::Create(std::move(f), {0, 1}, {0, 0}, {"x"}, {}, /*s_levels=*/4,
                           /*u_levels=*/1);
  ASSERT_TRUE(d.ok());
  const std::string path = TempPath("declared_levels.csv");
  ASSERT_TRUE(WriteCsv(*d, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->s_levels(), 4u);
  EXPECT_EQ(back->u_levels(), 1u);
}

TEST_F(CsvTest, MalformedLevelCommentIsRejected) {
  // A comment line that is not a valid level declaration must error, not
  // silently degrade to inference.
  const std::string path = TempPath("bad_comment.csv");
  WriteFile(path, "# s_levels=4\ns,u,x\n0,0,1.0\n");
  EXPECT_FALSE(ReadCsv(path).ok());
  const std::string swapped = TempPath("swapped_comment.csv");
  WriteFile(swapped, "# u_levels=3 s_levels=4\ns,u,x\n0,0,1.0\n");
  EXPECT_FALSE(ReadCsv(swapped).ok());
  // A count is a whole token with nothing after the second: an
  // overflowing, fractional or suffixed count, or a repeated key, must not
  // load as the number it starts with.
  const std::string rows = "s,u,x\n0,0,1.0\n1,0,2.0\n2,1,3.0\n0,1,4.0\n";
  for (const std::string comment :
       {"# s_levels=4294967299 u_levels=2", "# s_levels=3 u_levels=2.9",
        "# s_levels=3 u_levels=2junk", "# s_levels=3 u_levels=2 s_levels=9"}) {
    WriteFile(path, comment + "\n" + rows);
    EXPECT_FALSE(ReadCsv(path).ok()) << comment;
  }
  // The well-formed declaration still loads with loose whitespace and CRLF.
  WriteFile(path, "#s_levels= 3\tu_levels=2 \r\n" + rows);
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->s_levels(), 3u);
  EXPECT_EQ(loaded->u_levels(), 2u);
}

TEST_F(CsvTest, BinaryDatasetsGetNoLevelComment) {
  // Binary-era files must stay byte-identical: when inference recovers
  // the level counts, no comment line is written.
  common::Matrix f = common::Matrix::FromRows({{1.0}, {2.0}});
  auto d = Dataset::Create(std::move(f), {0, 1}, {1, 0}, {"x"});
  ASSERT_TRUE(d.ok());
  const std::string path = TempPath("no_comment.csv");
  ASSERT_TRUE(WriteCsv(*d, path).ok());
  std::ifstream in(path);
  std::string first;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, first)));
  EXPECT_EQ(first, "s,u,x");
}

TEST_F(CsvTest, MultiGroupRoundTrip) {
  common::Matrix f = common::Matrix::FromRows({{1.5}, {2.5}, {3.5}});
  auto d = Dataset::Create(std::move(f), {0, 2, 1}, {1, 0, 2}, {"x"});
  ASSERT_TRUE(d.ok());
  const std::string path = TempPath("multi_roundtrip.csv");
  ASSERT_TRUE(WriteCsv(*d, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->s_levels(), 3u);
  EXPECT_EQ(back->u_levels(), 3u);
  for (size_t i = 0; i < d->size(); ++i) {
    EXPECT_EQ(back->s(i), d->s(i));
    EXPECT_EQ(back->u(i), d->u(i));
    EXPECT_DOUBLE_EQ(back->feature(i, 0), d->feature(i, 0));
  }
}

TEST_F(CsvTest, RejectsNonNumericFeature) {
  const std::string path = TempPath("badnum.csv");
  WriteFile(path, "s,u,x\n0,1,abc\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, RejectsWrongColumnCount) {
  const std::string path = TempPath("badcols.csv");
  WriteFile(path, "s,u,x,y2\n0,1,1.0\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, MalformedRowsReportTheirFirstFault) {
  // Each bad row follows a good one and a whitespace-only line, so it is
  // line 4. A row is judged by its cell count first, then cell by cell.
  struct RowCase {
    std::string header;
    std::string row;
    std::string fault;
  };
  const RowCase kCases[] = {
      {"s,u,x,z", "0,1,abc", "wrong column count"},  // short, and its feature is bad
      {"s,u,x", "0,1,1.5,2.5", "wrong column count"},
      {"s,u,y,x", "0,1,2", "wrong column count"},  // short, and y is bad
      {"s,u,x", "a,1,1.5", "labels must be non-negative integers"},
      {"s,u,x", "0,-1,1.5", "labels must be non-negative integers"},
      {"s,u,x", "0, 1.0 ,1.5", "labels must be non-negative integers"},
      {"s,u,y,x", "0,x,1,abc", "labels must be non-negative integers"},
      {"s,u,y,x", "0,1,2,1.5", "outcome must be 0/1"},
      {"s,u,y,x", "0,1,-1,1.5", "outcome must be 0/1"},
      {"s,u,x,z", "0,1, 1 2 ,1.5", "bad number '1 2' (features must be finite decimals)"},
      {"s,u,x,z", "0,1,1.5,", "bad number '' (features must be finite decimals)"},
      {"s,u,x,z", "0,1,1e400,nan", "bad number '1e400' (features must be finite decimals)"},
      {"s,u,x,z", "0,1,1.5,\t0x10\r", "bad number '0x10' (features must be finite decimals)"},
  };
  const std::string path = TempPath("malformed_row.csv");
  for (const RowCase& c : kCases) {
    const size_t cells = static_cast<size_t>(std::count(c.header.begin(), c.header.end(), ','));
    std::string good = "1,0";
    for (size_t k = 2; k <= cells; ++k) good += ",0";
    WriteFile(path, c.header + "\n" + good + "\n \t \n" + c.row + "\n");
    auto loaded = ReadCsv(path);
    ASSERT_FALSE(loaded.ok()) << c.row;
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument) << c.row;
    EXPECT_EQ(loaded.status().message(), "row 4: " + c.fault + " in " + path) << c.row;
  }
  // The whitespace-only line is skipped and a CRLF row loads.
  WriteFile(path, "s,u,x\n1,0,0\n \t \n0,1, -2.5 \r\n");
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->u(1), 1);
  EXPECT_EQ(loaded->feature(1, 0), -2.5);
}

TEST_F(CsvTest, RejectsEmptyFile) {
  const std::string path = TempPath("empty.csv");
  WriteFile(path, "");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, RejectsHeaderOnlyFile) {
  const std::string path = TempPath("headeronly.csv");
  WriteFile(path, "s,u,x\n");
  EXPECT_FALSE(ReadCsv(path).ok());
}

TEST_F(CsvTest, MissingFileGivesIoError) {
  auto loaded = ReadCsv(TempPath("does_not_exist.csv"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kIoError);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// How ReadCsv read a feature cell before it parsed with from_chars: trim,
/// then strtod must consume the whole cell. The grammar table below is
/// checked against it.
bool StrtodReference(const std::string& cell, double* value) {
  const std::string trimmed(common::Trim(cell));
  char* end = nullptr;
  *value = std::strtod(trimmed.c_str(), &end);
  return end != trimmed.c_str() && *end == '\0';
}

/// The same for an s/u level, which was read with strtol.
bool StrtolReference(const std::string& cell, int* value) {
  const std::string trimmed(common::Trim(cell));
  char* end = nullptr;
  const long v = std::strtol(trimmed.c_str(), &end, 10);
  if (trimmed.empty() || *end != '\0' || v < 0 || v > (1 << 20)) return false;
  *value = static_cast<int>(v);
  return true;
}

enum class Verdict {
  kAsStrtod,          // accepted, to the reference's bits
  kRejectedAsBefore,  // the reference rejects it too
  kNowRejected,       // the reference accepted it; rejected on purpose
};

TEST_F(CsvTest, FeatureCellGrammarAgainstStrtod) {
  struct CellCase {
    std::string cell;
    Verdict verdict;
  };
  const CellCase kCases[] = {
      {"1.5", Verdict::kAsStrtod},
      {"+1.5", Verdict::kAsStrtod},
      {".5", Verdict::kAsStrtod},
      {"1.", Verdict::kAsStrtod},
      {"-0", Verdict::kAsStrtod},
      {"00012", Verdict::kAsStrtod},
      {"-.5e-3", Verdict::kAsStrtod},
      {"1E5", Verdict::kAsStrtod},
      {"+2.5e+05", Verdict::kAsStrtod},
      {" \t 3.25  ", Verdict::kAsStrtod},
      {"0e999999", Verdict::kAsStrtod},
      {"4.9406564584124654e-324", Verdict::kAsStrtod},  // smallest subnormal
      {"2.2250738585072014e-308", Verdict::kAsStrtod},  // DBL_MIN
      {"1.7976931348623157e308", Verdict::kAsStrtod},   // DBL_MAX
      {"123456789012345678901234567890", Verdict::kAsStrtod},
      {"0.1000000000000000055511151231257827021181583404541015625", Verdict::kAsStrtod},
      {"", Verdict::kRejectedAsBefore},
      {"abc", Verdict::kRejectedAsBefore},
      {"+-1", Verdict::kRejectedAsBefore},
      {"-+1", Verdict::kRejectedAsBefore},
      {"--1", Verdict::kRejectedAsBefore},
      {"+", Verdict::kRejectedAsBefore},
      {".", Verdict::kRejectedAsBefore},
      {"e5", Verdict::kRejectedAsBefore},
      {"1e", Verdict::kRejectedAsBefore},
      {"1.5.2", Verdict::kRejectedAsBefore},
      {"1 2", Verdict::kRejectedAsBefore},
      {"1.0x", Verdict::kRejectedAsBefore},
      {"0x1p3", Verdict::kNowRejected},   // strtod read 8
      {"-0X10", Verdict::kNowRejected},   // strtod read -16
      {"1e-400", Verdict::kNowRejected},  // strtod read 0
      {"1e400", Verdict::kNowRejected},   // strtod read inf
      {"-1e400", Verdict::kNowRejected},
      {"nan", Verdict::kNowRejected},
      {"NaN", Verdict::kNowRejected},
      {"-nan(123)", Verdict::kNowRejected},
      {"inf", Verdict::kNowRejected},
      {"+Infinity", Verdict::kNowRejected},
  };
  const std::string path = TempPath("grammar.csv");
  for (const CellCase& c : kCases) {
    // The cell sits between two others, so it is trimmed as a cell, not
    // as the end of a line.
    WriteFile(path, "s,u,x,z\n1,0,7,7\n0,1," + c.cell + ",7\n");
    double reference = 0.0;
    const bool reference_ok = StrtodReference(c.cell, &reference);
    auto loaded = ReadCsv(path);
    if (c.verdict == Verdict::kAsStrtod) {
      ASSERT_TRUE(reference_ok) << "'" << c.cell << "'";
      ASSERT_TRUE(loaded.ok()) << "'" << c.cell << "': " << loaded.status().ToString();
      EXPECT_EQ(Bits(loaded->feature(1, 0)), Bits(reference)) << "'" << c.cell << "'";
      continue;
    }
    EXPECT_EQ(reference_ok, c.verdict == Verdict::kNowRejected) << "'" << c.cell << "'";
    ASSERT_FALSE(loaded.ok()) << "'" << c.cell << "' was accepted";
    EXPECT_EQ(loaded.status().code(), common::StatusCode::kInvalidArgument) << c.cell;
    EXPECT_NE(loaded.status().message().find("row 3"), std::string::npos)
        << loaded.status().message();
  }
}

TEST_F(CsvTest, LevelCellGrammarAgainstStrtol) {
  const std::string kCells[] = {"0",  "1",   "+1", "-0",   "007", " 2 ",  "+0",
                                "-1", "1.0", "",   "0x1",  "+-1", "1e0",  "2 2",
                                "a",  "-",   "+",  "99999999999999999999"};
  const std::string path = TempPath("levels.csv");
  for (const std::string& cell : kCells) {
    WriteFile(path, "s,u,x\n1,0,1.5\n0," + cell + ",2.5\n");
    int reference = 0;
    const bool reference_ok = StrtolReference(cell, &reference);
    auto loaded = ReadCsv(path);
    ASSERT_EQ(loaded.ok(), reference_ok) << "'" << cell << "'";
    if (reference_ok) {
      EXPECT_EQ(loaded->u(1), reference) << "'" << cell << "'";
    }
  }
}

TEST_F(CsvTest, LineEndingsBlankLinesAndMissingFinalNewline) {
  const std::string path = TempPath("endings.csv");
  for (const std::string& content :
       {std::string("s,u,x\r\n0,1,1.5\r\n\r\n \t\r\n1,0,2.5\r\n"),
        std::string("s,u,x\n0,1,1.5\n\n1,0,2.5"), std::string("s,u,x\n0,1,1.5\n1,0,2.5\r")}) {
    WriteFile(path, content);
    auto loaded = ReadCsv(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->size(), 2u);
    EXPECT_EQ(loaded->feature(0, 0), 1.5);
    EXPECT_EQ(loaded->feature(1, 0), 2.5);
    EXPECT_EQ(loaded->feature_names(), std::vector<std::string>{"x"});
  }
}

TEST_F(CsvTest, LinesLongerThanTheReadBuffer) {
  // A 70k-byte padded cell, then rows of ~100 KB each way.
  const std::string padded = TempPath("padded.csv");
  WriteFile(padded, "s,u,x\n0,1," + std::string(70000, ' ') + "1.5\n1,0,2.5\n");
  auto loaded = ReadCsv(padded);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->feature(0, 0), 1.5);
  EXPECT_EQ(loaded->feature(1, 0), 2.5);

  const size_t d = 5000;
  Matrix f(3, d);
  common::Rng rng(3);
  for (size_t i = 0; i < f.size(); ++i) f.data()[i] = rng.Normal() * 1e-3;
  std::vector<std::string> names;
  for (size_t k = 0; k < d; ++k) names.push_back("feature_" + std::to_string(k));
  auto wide = Dataset::Create(f, {0, 1, 1}, {1, 0, 1}, names, {1, 1, 0});
  ASSERT_TRUE(wide.ok());
  const std::string path = TempPath("wide.csv");
  ASSERT_TRUE(WriteCsv(*wide, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->feature_names(), names);
  ASSERT_EQ(back->size(), 3u);
  for (size_t i = 0; i < f.size(); ++i) ASSERT_EQ(Bits(back->features().data()[i]), Bits(f.data()[i]));
}

TEST_F(CsvTest, ReadsFromAPipe) {
  // A non-seekable input that arrives in pieces across many reads.
  std::string content = "s,u,x\n";
  for (int i = 0; i < 20000; ++i) content += std::to_string(i % 2) + ",1," + std::to_string(i) + ".25\n";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    for (size_t off = 0; off < content.size();) {
      const ssize_t n = ::write(fds[1], content.data() + off, content.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(fds[1]);
  });
  auto loaded = ReadCsv("/proc/self/fd/" + std::to_string(fds[0]));
  writer.join();
  ::close(fds[0]);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 20000u);
  EXPECT_EQ(loaded->feature(19999, 0), 19999.25);
}

TEST_F(CsvTest, GoldenFilesRoundTripByteForByte) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(OTFAIR_GOLDEN_DIR)) {
    if (entry.path().extension() != ".csv") continue;
    ++files;
    const std::string original = ReadAll(entry.path().string());
    auto loaded = ReadCsv(entry.path().string());
    ASSERT_TRUE(loaded.ok()) << entry.path() << ": " << loaded.status().ToString();
    const std::string path = TempPath("golden_copy.csv");
    ASSERT_TRUE(WriteCsv(*loaded, path).ok());
    EXPECT_TRUE(ReadAll(path) == original) << entry.path() << " changed in a round trip";
  }
  EXPECT_GE(files, 3u);
}

TEST_F(CsvTest, FailedFinalWriteIsReported) {
  // Two rows fit in the write buffer, so the failure shows only when the
  // buffer is flushed at close.
  struct stat info {};
  if (::stat("/dev/full", &info) != 0 || !S_ISCHR(info.st_mode))
    GTEST_SKIP() << "no /dev/full";
  auto d = Dataset::Create(Matrix::FromRows({{1.5}, {2.5}}), {0, 1}, {1, 0}, {"x"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(WriteCsv(*d, "/dev/full").code(), common::StatusCode::kIoError);
}

}  // namespace
}  // namespace otfair::data
