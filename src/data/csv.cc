#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

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
/// only to hold a single line longer than it.
class LineReader {
 public:
  explicit LineReader(std::FILE* file) : file_(file), buffer_(kBufferBytes) {}

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
      if (end_ == buffer_.size()) buffer_.resize(2 * buffer_.size());
      const size_t got = std::fread(buffer_.data() + end_, 1, buffer_.size() - end_, file_);
      if (got == 0) {
        if (failed()) return false;
        at_eof_ = true;
      }
      end_ += got;
    }
  }

  bool failed() const { return std::ferror(file_) != 0; }

 private:
  std::FILE* file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  // first byte not yet returned
  size_t end_ = 0;    // one past the last byte read
  bool at_eof_ = false;
};

/// Splits `line` at commas into exactly `cells->size()` trimmed cells;
/// false when it has another number of cells.
bool SplitCells(std::string_view line, std::vector<std::string_view>* cells) {
  const size_t last = cells->size() - 1;
  for (size_t c = 0; c < last; ++c) {
    const size_t comma = line.find(',');
    if (comma == std::string_view::npos) return false;
    (*cells)[c] = common::Trim(line.substr(0, comma));
    line.remove_prefix(comma + 1);
  }
  if (line.find(',') != std::string_view::npos) return false;
  (*cells)[last] = common::Trim(line);
  return true;
}

/// Parses a categorical level: an optional sign and decimal digits with a
/// value in [0, 2^20] ("-0" reads as 0).
bool ParseLevel(std::string_view cell, int* level) {
  bool negative = false;
  if (!cell.empty() && (cell.front() == '+' || cell.front() == '-')) {
    negative = cell.front() == '-';
    cell.remove_prefix(1);
  }
  if (cell.empty() || cell.front() < '0' || cell.front() > '9') return false;
  int value = 0;
  const auto [end, error] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (error != std::errc() || end != cell.data() + cell.size() || value > (1 << 20) ||
      (negative && value != 0))
    return false;
  *level = value;
  return true;
}

/// Parses the level-count comment "# s_levels=K u_levels=M". Whitespace
/// between the tokens is optional; each count is a whole ParseLevel token,
/// and nothing may follow the second.
bool ParseLevelComment(std::string_view line, int* s_levels, int* u_levels) {
  auto key = [&line](std::string_view name) {
    line = common::Trim(line);
    if (line.substr(0, name.size()) != name) return false;
    line.remove_prefix(name.size());
    return true;
  };
  auto count = [&line](int* value) {
    line = common::Trim(line);
    const size_t end = std::min(line.find_first_not_of("+-0123456789"), line.size());
    if (!ParseLevel(line.substr(0, end), value)) return false;
    line.remove_prefix(end);
    return true;
  };
  return key("#") && key("s_levels=") && count(s_levels) && key("u_levels=") &&
         count(u_levels) && common::Trim(line).empty();
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
  std::vector<std::string_view> cells(
      1 + static_cast<size_t>(std::count(line.begin(), line.end(), ',')));
  SplitCells(line, &cells);  // sized to the line's cells, so it cannot fail
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
  while (lines.Next(&line)) {
    ++line_number;
    line = common::Trim(line);
    if (line.empty()) continue;
    if (!SplitCells(line, &cells))
      return Status::InvalidArgument("row " + std::to_string(line_number) +
                                     ": wrong column count in " + path);
    // s/u are categorical levels (any non-negative integer); y stays 0/1.
    int si = 0;
    int ui = 0;
    if (!ParseLevel(cells[0], &si) || !ParseLevel(cells[1], &ui))
      return Status::InvalidArgument("row " + std::to_string(line_number) +
                                     ": labels must be non-negative integers in " + path);
    s.push_back(si);
    u.push_back(ui);
    if (has_outcome) {
      int yi = 0;
      if (!ParseLevel(cells[2], &yi) || yi > 1)
        return Status::InvalidArgument("row " + std::to_string(line_number) +
                                       ": outcome must be 0/1 in " + path);
      y.push_back(yi);
    }
    if (rows % block_rows == 0) blocks.emplace_back(block_rows * d);
    double* row = blocks.back().data() + (rows % block_rows) * d;
    for (size_t k = 0; k < d; ++k) {
      if (!common::ParseFiniteDecimal(cells[feature_start + k], &row[k]))
        return Status::InvalidArgument("row " + std::to_string(line_number) +
                                       ": bad number '" + std::string(cells[feature_start + k]) +
                                       "' (features must be finite decimals) in " + path);
    }
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
