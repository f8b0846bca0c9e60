#include "serve/protocol.h"

#include <charconv>
#include <string_view>
#include <system_error>

#include "common/check.h"
#include "common/string_util.h"
#include "serve/batcher.h"

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

/// The protocol's verb set: the parser dispatches on it and
/// IsProtocolVerb answers from it.
struct Verb {
  std::string_view name;
  RequestKind kind;
};
constexpr Verb kVerbs[] = {
    {"repair", RequestKind::kRepair},
    {"metrics", RequestKind::kMetrics},
    {"health", RequestKind::kHealth},
    {"reload", RequestKind::kReload},
    {"checkpoint", RequestKind::kCheckpoint},
    {"quit", RequestKind::kQuit},
};

const Verb* FindVerb(std::string_view token) {
  for (const Verb& verb : kVerbs)
    if (verb.name == token) return &verb;
  return nullptr;
}

/// Splits on runs of spaces/tabs (unlike common::Split, which keeps empty
/// tokens): protocol lines are human-typeable. The tokens view `line`, so
/// a row costs no string per field; `expected` sizes the vector once.
std::vector<std::string_view> Tokenize(std::string_view line, size_t expected) {
  std::vector<std::string_view> tokens;
  tokens.reserve(expected);
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Digits only, the whole token, and no overflow: std::from_chars into an
/// unsigned type takes no sign and no space.
bool ParseU64(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) return false;
  *out = value;
  return true;
}

/// Echoes at most a 32-char prefix of an input token inside an error
/// message, with control characters replaced: the token may be huge or
/// binary junk, and the rendered `err` line must stay one sane line.
std::string SanitizeToken(std::string_view token) {
  std::string shown(token.substr(0, 32));
  for (char& c : shown)
    if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) >= 0x7f)
      c = '?';
  return shown;
}

}  // namespace

Result<ProtocolRequest> ParseRequestLine(const std::string& line, size_t dim, size_t u_levels,
                                         size_t s_levels, RowResponse* refused_row) {
  if (line.size() > kMaxRequestLineBytes)
    return Status::InvalidArgument("request line exceeds " +
                                   std::to_string(kMaxRequestLineBytes) + " bytes");
  const std::vector<std::string_view> tokens = Tokenize(line, 5 + dim);
  if (tokens.empty()) return Status::InvalidArgument("empty request line");
  const Verb* verb = FindVerb(tokens[0]);
  if (verb == nullptr)
    return Status::InvalidArgument("unknown request '" + SanitizeToken(tokens[0]) + "'");
  ProtocolRequest request;
  request.kind = verb->kind;
  switch (verb->kind) {
    case RequestKind::kMetrics:
      if (tokens.size() >= 2 && (tokens[1] == "--prom" || tokens[1] == "prom"))
        request.kind = RequestKind::kMetricsProm;
      return request;
    case RequestKind::kReload:
      if (tokens.size() != 2) return Status::InvalidArgument("usage: reload <plan_path>");
      request.plan_path = std::string(tokens[1]);
      return request;
    case RequestKind::kRepair:
      break;
    default:  // health, checkpoint and quit take no operands
      return request;
  }
  if (tokens.size() != 5 + dim)
    return Status::InvalidArgument(
        "usage: repair <session> <row> <u> <s> <x_1..x_" + std::to_string(dim) + "> (got " +
        std::to_string(tokens.size() - 1) + " fields)");
  RowRequest& row = request.row;
  if (!ParseU64(tokens[1], &row.session_id) || !ParseU64(tokens[2], &row.row_index))
    return Status::InvalidArgument("bad session/row fields");
  // From here on the line names its row, so a failure is that row's.
  auto refuse = [&](Status status) {
    if (refused_row != nullptr) *refused_row = {row.session_id, row.row_index, {}, status};
    return status;
  };
  // Bounded before the int cast, so no huge label wraps into range.
  uint64_t u = 0;
  uint64_t s = 0;
  if (!ParseU64(tokens[3], &u) || !ParseU64(tokens[4], &s) || u >= u_levels || s >= s_levels)
    return refuse(Status::InvalidArgument("u and s must be labels in [0, " +
                                          std::to_string(u_levels) + ") x [0, " +
                                          std::to_string(s_levels) + ")"));
  row.u = static_cast<int>(u);
  row.s = static_cast<int>(s);
  row.features.resize(dim);
  // A non-finite feature would poison the repair tables and the
  // channel sketches, so the protocol rejects it at the boundary.
  for (size_t k = 0; k < dim; ++k) {
    if (!common::ParseFiniteDecimal(tokens[5 + k], &row.features[k]))
      return refuse(Status::InvalidArgument("bad feature value '" +
                                            SanitizeToken(tokens[5 + k]) +
                                            "' (must be a finite number)"));
  }
  return request;
}

bool IsProtocolVerb(std::string_view token) { return FindVerb(token) != nullptr; }

std::string AnswerControlRequest(const ProtocolRequest& request, RepairService& service,
                                 Batcher& batcher, const CheckpointHook& checkpoint) {
  switch (request.kind) {
    case RequestKind::kMetrics:
      return service.metrics().Snapshot(batcher.queue_depth()).ToJson();
    case RequestKind::kMetricsProm:
      // The one multi-line response: the exposition text (every line
      // newline-terminated by the renderer) plus a "# EOF" marker so a
      // line-oriented client knows where the payload ends.
      return service.metrics().RenderPrometheus(batcher.queue_depth()) + "# EOF";
    case RequestKind::kHealth:
      return service.Health().ToJson();
    case RequestKind::kReload:
      if (Status status = service.ReloadPlanFromFile(request.plan_path); !status.ok())
        return FormatErrorLine(status);
      return "ok reload " + std::to_string(service.plan_version());
    case RequestKind::kCheckpoint: {
      if (!checkpoint)
        return FormatErrorLine(Status::FailedPrecondition(
            "checkpointing disabled (serve with --checkpoint_dir)"));
      // Without the flush a partial batch could still be queued, and its
      // sketch updates would miss the acked checkpoint.
      batcher.Flush();
      auto generation = checkpoint();
      if (!generation.ok()) return FormatErrorLine(generation.status());
      return "ok checkpoint " + std::to_string(*generation);
    }
    case RequestKind::kRepair:
    case RequestKind::kQuit:
      break;
  }
  OTFAIR_CHECK(false) << "repair and quit are answered by the front end";
  return {};
}

std::string FormatRowResponse(const RowResponse& response) {
  std::string line = response.status.ok() ? "ok " : "err ";
  line += std::to_string(response.session_id);
  line += ' ';
  line += std::to_string(response.row_index);
  if (!response.status.ok()) {
    line += ' ';
    line += common::StatusCodeToString(response.status.code());
    line += ' ';
    line += response.status.message();
    return line;
  }
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

}  // namespace otfair::serve
