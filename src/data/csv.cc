#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/simd.h"
#include "common/string_util.h"

namespace otfair::data {

using common::Result;
using common::Status;

namespace {

/// Both directions stream through buffers of this size, so memory stays
/// flat however long the file is.
constexpr size_t kBufferBytes = 64 * 1024;
/// Features are read into blocks of this many values, then copied once
/// into the dataset's exact-size matrix.
constexpr size_t kBlockValues = 8 * 1024;
/// The longest decimal rendering of an int label ("-2147483648").
constexpr size_t kMaxIntChars = 11;

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Yields the lines of a stream, without their '\n', as views into one
/// reused buffer: a view is valid until the next call. The buffer grows
/// only to hold a single line longer than it. Every view is followed, inside
/// the buffer, by at least simd::kDecimalSlack bytes, which the decimal
/// kernel may read past the end of a line.
class LineReader {
 public:
  explicit LineReader(std::FILE* file)
      : file_(file), buffer_(kBufferBytes + common::simd::kDecimalSlack) {}

  /// False at the end of the input or on a read error (see failed()).
  bool Next(std::string_view* line) {
    size_t scanned = begin_;
    while (true) {
      char* const data = buffer_.data();
      if (const void* newline = std::memchr(data + scanned, '\n', end_ - scanned)) {
        const size_t at = static_cast<size_t>(static_cast<const char*>(newline) - data);
        *line = std::string_view(data + begin_, at - begin_);
        begin_ = at + 1;
        return true;
      }
      if (at_eof_) {
        if (begin_ == end_) return false;
        *line = std::string_view(data + begin_, end_ - begin_);
        begin_ = end_;
        return true;
      }
      // Keep the partial line at the front and refill behind it.
      std::memmove(data, data + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      scanned = end_;
      if (end_ == capacity()) buffer_.resize(2 * capacity() + common::simd::kDecimalSlack);
      const size_t got = std::fread(buffer_.data() + end_, 1, capacity() - end_, file_);
      if (got == 0) {
        if (failed()) return false;
        at_eof_ = true;
      }
      end_ += got;
    }
  }

  bool failed() const { return std::ferror(file_) != 0; }

 private:
  /// The bytes reads may fill; the slack behind them is never filled.
  size_t capacity() const { return buffer_.size() - common::simd::kDecimalSlack; }

  std::FILE* file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first byte not yet returned
  size_t end_ = 0;    // one past the last byte read
  bool at_eof_ = false;
};

/// The whitespace a cell may carry around its token (std::isspace in the
/// "C" locale).
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

const char* SkipSpace(const char* c, const char* end) {
  while (c != end && IsSpace(*c)) ++c;
  return c;
}

/// Moves the cursor past a token's trailing whitespace and the ',' that
/// ends its cell, then past the next cell's leading whitespace.
bool NextCell(const char*& c, const char* end) {
  c = SkipSpace(c, end);
  if (c == end || *c != ',') return false;
  c = SkipSpace(c + 1, end);
  return true;
}

/// Reads a categorical level at the cursor: an optional sign and decimal
/// digits with a value in [0, 2^20] ("-0" reads as 0).
bool ReadLevel(const char*& c, const char* end, int* level) {
  constexpr uint32_t kMaxLevel = 1 << 20;
  bool negative = false;
  if (c != end && (*c == '+' || *c == '-')) {
    negative = *c == '-';
    ++c;
  }
  if (c == end || *c < '0' || *c > '9') return false;
  uint32_t value = 0;
  for (; c != end && *c >= '0' && *c <= '9'; ++c)
    value = std::min(10 * value + static_cast<uint32_t>(*c - '0'), kMaxLevel + 1);
  if (value > kMaxLevel || (negative && value != 0)) return false;
  *level = static_cast<int>(value);
  return true;
}

using ParseDecimal = decltype(common::simd::Ops::parse_decimal);

/// What ReadRow returns for a row that conforms.
constexpr size_t kRowOk = static_cast<size_t>(-1);

/// Reads the row at `c` (past its leading whitespace) on one cursor: s, u
/// and optionally y as levels (s/u any level, y 0/1), then `d` features,
/// each cell ended by optional whitespace and a ',' (the last by the end of
/// the line). Returns kRowOk, or the index of the cell where the row
/// stopped conforming; RowError says why.
size_t ReadRow(const char* c, const char* end, bool has_outcome, int* labels, size_t d,
               ParseDecimal parse, double* features) {
  const size_t label_cells = has_outcome ? 3 : 2;
  for (size_t cell = 0; cell < label_cells; ++cell) {
    if (!ReadLevel(c, end, &labels[cell]) || (cell == 2 && labels[2] > 1) || !NextCell(c, end))
      return cell;
  }
  for (size_t k = 0; k + 1 < d; ++k) {
    c = parse(c, end, &features[k]);
    if (c == nullptr || !NextCell(c, end)) return label_cells + k;
  }
  c = parse(c, end, &features[d - 1]);
  if (c == nullptr || SkipSpace(c, end) != end) return label_cells + d - 1;
  return kRowOk;
}

/// The status of a row ReadRow stopped at `cell`, as a per-cell check
/// reports it: a row with the wrong number of cells first, then its first
/// bad cell.
Status RowError(std::string_view line, size_t cell, size_t cells, bool has_outcome,
                size_t line_number, const std::string& path) {
  const std::string row = "row " + std::to_string(line_number) + ": ";
  if (static_cast<size_t>(std::count(line.begin(), line.end(), ',')) + 1 != cells)
    return Status::InvalidArgument(row + "wrong column count in " + path);
  if (cell < 2)
    return Status::InvalidArgument(row + "labels must be non-negative integers in " + path);
  if (has_outcome && cell == 2)
    return Status::InvalidArgument(row + "outcome must be 0/1 in " + path);
  for (size_t k = 0; k < cell; ++k) line.remove_prefix(line.find(',') + 1);
  return Status::InvalidArgument(row + "bad number '" +
                                 std::string(common::Trim(line.substr(0, line.find(',')))) +
                                 "' (features must be finite decimals) in " + path);
}

/// Parses the level-count comment "# s_levels=K u_levels=M". Whitespace
/// between the tokens is optional; each count is a whole level token,
/// and nothing may follow the second.
bool ParseLevelComment(std::string_view line, int* s_levels, int* u_levels) {
  const char* c = line.data();
  const char* const end = c + line.size();
  auto key = [&c, end](std::string_view name) {
    c = SkipSpace(c, end);
    if (static_cast<size_t>(end - c) < name.size() || name != std::string_view(c, name.size()))
      return false;
    c += name.size();
    return true;
  };
  auto count = [&c, end](int* value) {
    c = SkipSpace(c, end);
    return ReadLevel(c, end, value);
  };
  return key("#") && key("s_levels=") && count(s_levels) && key("u_levels=") && count(u_levels) &&
         SkipSpace(c, end) == end;
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (!file) return Status::IoError("cannot open for writing: " + path);
  // Rows are formatted into `buffer` and written a whole buffer at a time.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);
  // Level counts that inference cannot recover (a declared level with no
  // observed rows, or a single declared u stratum) are persisted in a
  // comment line. Datasets whose levels match inference — every
  // binary-era file — are written byte-identically to earlier releases.
  std::string header;
  if (dataset.s_levels() != Dataset::InferLevels(dataset.s_labels()) ||
      dataset.u_levels() != Dataset::InferLevels(dataset.u_labels())) {
    header = "# s_levels=" + std::to_string(dataset.s_levels()) +
             " u_levels=" + std::to_string(dataset.u_levels()) + "\n";
  }
  header += dataset.has_outcome() ? "s,u,y" : "s,u";
  for (const std::string& name : dataset.feature_names()) header += "," + name;
  header += "\n";
  bool written = std::fwrite(header.data(), 1, header.size(), file.get()) == header.size();

  const size_t d = dataset.dim();
  const size_t max_row = 3 * (kMaxIntChars + 1) + d * (1 + common::kMaxDouble17Chars) + 1;
  std::vector<char> buffer(std::max(kBufferBytes, max_row));
  char* p = buffer.data();
  auto flush = [&] {
    const size_t bytes = static_cast<size_t>(p - buffer.data());
    written = std::fwrite(buffer.data(), 1, bytes, file.get()) == bytes && written;
    p = buffer.data();
  };
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (static_cast<size_t>(buffer.data() + buffer.size() - p) < max_row) flush();
    p = std::to_chars(p, p + kMaxIntChars, dataset.s(i)).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + kMaxIntChars, dataset.u(i)).ptr;
    if (dataset.has_outcome()) {
      *p++ = ',';
      p = std::to_chars(p, p + kMaxIntChars, dataset.y(i)).ptr;
    }
    const double* row = dataset.features().row(i);
    for (size_t k = 0; k < d; ++k) {
      *p++ = ',';
      p = common::AppendDouble17(p, row[k]);
    }
    *p++ = '\n';
  }
  flush();
  if (std::fclose(file.release()) != 0 || !written)
    return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Dataset> ReadCsv(const std::string& path) {
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IoError("cannot open for reading: " + path);
  // LineReader already reads whole 64 KiB blocks.
  std::setvbuf(file.get(), nullptr, _IONBF, 0);
  LineReader lines(file.get());

  std::string_view line;
  if (!lines.Next(&line)) return Status::IoError("empty file: " + path);
  // Optional level-count comment (written by WriteCsv when inference
  // would under-count; see above). A comment line that is not a valid
  // level declaration is an error, not silently ignored — dropping a
  // malformed declaration would let the dataset load with the wrong |S|.
  size_t s_levels = 0;
  size_t u_levels = 0;
  if (!line.empty() && line[0] == '#') {
    int s_parsed = 0;
    int u_parsed = 0;
    if (!ParseLevelComment(line, &s_parsed, &u_parsed) || s_parsed < 2 || u_parsed < 1)
      return Status::InvalidArgument(
          "unrecognized comment header (expected '# s_levels=K u_levels=M'): " + path);
    s_levels = static_cast<size_t>(s_parsed);
    u_levels = static_cast<size_t>(u_parsed);
    if (!lines.Next(&line)) return Status::IoError("empty file: " + path);
  }
  std::vector<std::string> cells = common::Split(std::string(line), ',');
  for (std::string& cell : cells) cell = std::string(common::Trim(cell));
  if (cells.size() < 3 || cells[0] != "s" || cells[1] != "u")
    return Status::InvalidArgument("header must be 's,u[,y],<features...>': " + path);
  const bool has_outcome = cells[2] == "y";
  const size_t feature_start = has_outcome ? 3 : 2;
  if (cells.size() <= feature_start)
    return Status::InvalidArgument("no feature columns in header: " + path);
  std::vector<std::string> names(cells.begin() + static_cast<ptrdiff_t>(feature_start),
                                 cells.end());
  const size_t d = names.size();

  const size_t block_rows = std::max<size_t>(1, kBlockValues / d);
  std::vector<std::vector<double>> blocks;
  size_t rows = 0;
  std::vector<int> s;
  std::vector<int> u;
  std::vector<int> y;
  size_t line_number = 1;
  int labels[3] = {};
  const ParseDecimal parse = common::simd::Active().parse_decimal;
  while (lines.Next(&line)) {
    ++line_number;
    const char* const end = line.data() + line.size();
    const char* const start = SkipSpace(line.data(), end);
    if (start == end) continue;
    if (rows % block_rows == 0) blocks.emplace_back(block_rows * d);
    double* row = blocks.back().data() + (rows % block_rows) * d;
    const size_t failed = ReadRow(start, end, has_outcome, labels, d, parse, row);
    if (failed != kRowOk)
      return RowError(line, failed, cells.size(), has_outcome, line_number, path);
    s.push_back(labels[0]);
    u.push_back(labels[1]);
    if (has_outcome) y.push_back(labels[2]);
    ++rows;
  }
  if (lines.failed()) return Status::IoError("read failed: " + path);
  if (rows == 0) return Status::InvalidArgument("no data rows in " + path);
  common::Matrix features(rows, d);
  for (size_t b = 0; b < blocks.size(); ++b) {
    const size_t count = std::min(block_rows, rows - b * block_rows) * d;
    std::copy_n(blocks[b].data(), count, features.row(b * block_rows));
  }
  return Dataset::Create(std::move(features), std::move(s), std::move(u), std::move(names),
                         std::move(y), s_levels, u_levels);
}

}  // namespace otfair::data
