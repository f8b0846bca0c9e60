#include "serve/protocol.h"

#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

/// Splits on runs of spaces/tabs (unlike common::Split, which keeps empty
/// tokens): protocol lines are human-typeable.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  // strtoull silently wraps negatives ("-1" -> 2^64-1); require a digit.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

/// Echoes at most a 32-char prefix of an input token inside an error
/// message, with control characters replaced: the token may be huge or
/// binary junk, and the rendered `err` line must stay one sane line.
std::string SanitizeToken(const std::string& token) {
  std::string shown = token.substr(0, 32);
  for (char& c : shown)
    if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) >= 0x7f)
      c = '?';
  return shown;
}

}  // namespace

Result<ProtocolRequest> ParseRequestLine(const std::string& line, size_t dim, size_t u_levels,
                                         size_t s_levels) {
  if (line.size() > kMaxRequestLineBytes)
    return Status::InvalidArgument("request line exceeds " +
                                   std::to_string(kMaxRequestLineBytes) + " bytes");
  const std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return Status::InvalidArgument("empty request line");
  ProtocolRequest request;
  const std::string& verb = tokens[0];
  if (verb == "metrics") {
    if (tokens.size() >= 2 && (tokens[1] == "--prom" || tokens[1] == "prom")) {
      request.kind = RequestKind::kMetricsProm;
      return request;
    }
    request.kind = RequestKind::kMetrics;
    return request;
  }
  if (verb == "health") {
    request.kind = RequestKind::kHealth;
    return request;
  }
  if (verb == "quit") {
    request.kind = RequestKind::kQuit;
    return request;
  }
  if (verb == "checkpoint") {
    request.kind = RequestKind::kCheckpoint;
    return request;
  }
  if (verb == "reload") {
    if (tokens.size() != 2)
      return Status::InvalidArgument("usage: reload <plan_path>");
    request.kind = RequestKind::kReload;
    request.plan_path = tokens[1];
    return request;
  }
  if (verb == "repair") {
    if (tokens.size() != 5 + dim)
      return Status::InvalidArgument(
          "usage: repair <session> <row> <u> <s> <x_1..x_" + std::to_string(dim) +
          "> (got " + std::to_string(tokens.size() - 1) + " fields)");
    request.kind = RequestKind::kRepair;
    uint64_t u = 0;
    uint64_t s = 0;
    if (!ParseU64(tokens[1], &request.row.session_id) ||
        !ParseU64(tokens[2], &request.row.row_index) || !ParseU64(tokens[3], &u) ||
        !ParseU64(tokens[4], &s) || u >= u_levels || s >= s_levels)
      return Status::InvalidArgument("bad session/row/u/s fields");
    request.row.u = static_cast<int>(u);
    request.row.s = static_cast<int>(s);
    request.row.features.resize(dim);
    // A non-finite feature would poison the repair tables and the
    // drift/sketch accumulators, so the protocol rejects it at the boundary.
    for (size_t k = 0; k < dim; ++k) {
      if (!common::ParseFiniteDecimal(tokens[5 + k], &request.row.features[k]))
        return Status::InvalidArgument("bad feature value '" +
                                       SanitizeToken(tokens[5 + k]) +
                                       "' (must be a finite number)");
    }
    return request;
  }
  return Status::InvalidArgument("unknown request '" + SanitizeToken(verb) + "'");
}

std::string FormatRowResponse(const RowResponse& response) {
  if (!response.status.ok())
    return FormatErrorLine(response.session_id, response.row_index, response.status);
  std::string line = "ok ";
  line += std::to_string(response.session_id);
  line += ' ';
  line += std::to_string(response.row_index);
  char buf[1 + common::kMaxDouble17Chars] = {' '};
  for (const double v : response.repaired) line.append(buf, common::AppendDouble17(buf + 1, v));
  return line;
}

std::string FormatErrorLine(const common::Status& status) {
  std::string line = "err - - ";
  line += common::StatusCodeToString(status.code());
  line += ' ';
  line += status.message();
  return line;
}

std::string FormatErrorLine(uint64_t session_id, uint64_t row_index,
                            const common::Status& status) {
  std::string line = "err ";
  line += std::to_string(session_id);
  line += ' ';
  line += std::to_string(row_index);
  line += ' ';
  line += common::StatusCodeToString(status.code());
  line += ' ';
  line += status.message();
  return line;
}

}  // namespace otfair::serve
