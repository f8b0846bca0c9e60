#ifndef OTFAIR_SERVE_PROTOCOL_H_
#define OTFAIR_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "serve/repair_service.h"

namespace otfair::serve {

class Batcher;

/// The newline-delimited request/response protocol `otfair serve` speaks
/// on stdin/stdout. One request per line, whitespace-separated fields:
///
///   repair <session_id> <row_index> <u> <s> <x_1> ... <x_d>
///   metrics              -> one-line JSON metrics snapshot
///   metrics --prom       -> Prometheus text exposition, "# EOF"-terminated
///   health               -> one-line JSON drift/health verdict
///   reload <plan_path>   -> hot-swaps the serving plan
///   checkpoint           -> forces a synchronous checkpoint write
///   quit                 -> drains pending work and exits
///
/// Responses (one line each):
///
///   ok <session_id> <row_index> <y_1> ... <y_d>     repaired row
///   err <session_id> <row_index> <CODE> <message>   per-row failure
///   ok reload <version>                             after a reload
///   ok checkpoint <generation>                      after a forced write
///   {...}                                           metrics / health JSON
///
/// `metrics --prom` is the one multi-line response: the full exposition
/// text followed by a terminating "# EOF" line (a comment under the
/// exposition grammar, so the payload stays checker-clean).
///
/// Repaired values are printed with %.17g, so a round trip through the
/// protocol is bit-exact.

enum class RequestKind { kRepair, kMetrics, kMetricsProm, kHealth, kReload, kCheckpoint, kQuit };

/// Hard ceiling on one request line's length. A well-formed repair line is
/// ~25 bytes per feature, so 64 KiB comfortably covers dim in the
/// thousands; anything longer is garbage (or a protocol abuse) and is
/// rejected with a structured error before tokenization touches it.
inline constexpr size_t kMaxRequestLineBytes = 64 * 1024;

struct ProtocolRequest {
  RequestKind kind = RequestKind::kRepair;
  RowRequest row;         // kRepair
  std::string plan_path;  // kReload
};

/// True for exactly the verbs ParseRequestLine understands (`repair`,
/// `metrics`, `health`, `reload`, `checkpoint`, `quit`; case-sensitive).
/// A front end uses it to tell a client's malformed request from a stream
/// that is not speaking the protocol at all.
bool IsProtocolVerb(std::string_view token);

/// Parses one request line. `dim` is the serving dimensionality; a repair
/// line must carry exactly `dim` features. `u_levels`/`s_levels` bound the
/// categorical group labels (the binary protocol is u_levels = s_levels =
/// 2). Blank lines are invalid.
///
/// Hardened against garbage input: any malformed line — truncated
/// commands, out-of-range labels, non-numeric or non-finite (nan/inf)
/// feature payloads, oversized lines (> kMaxRequestLineBytes), binary
/// junk — comes back as an InvalidArgument status. Parsing never throws,
/// crashes, or silently coerces a bad field.
///
/// A repair line with the right field count whose session and row parse
/// names its row even when its u, s or a feature fails: that failure also
/// goes to `*refused_row` (when given) with the row's identity, and the
/// front end answers it through FormatRowResponse as
/// `err <session> <row> <CODE> <message>`. Every other failure leaves
/// `*refused_row` untouched and is answered through FormatErrorLine.
common::Result<ProtocolRequest> ParseRequestLine(const std::string& line, size_t dim,
                                                 size_t u_levels = 2, size_t s_levels = 2,
                                                 RowResponse* refused_row = nullptr);

/// The `checkpoint` verb's hook: persist now and return the generation
/// written. An empty hook means checkpointing is disabled.
using CheckpointHook = std::function<common::Result<uint64_t>()>;

/// Answers a parsed control request — `metrics`, `metrics --prom`,
/// `health`, `reload` or `checkpoint` — identically for every front end,
/// as the response text without its final newline. `batcher` is the
/// caller's: its pending rows are the queue depth the metrics report, and
/// it is flushed before a checkpoint so the acked generation covers every
/// row submitted before the verb. `repair` and `quit` are the front end's to
/// answer; passing either is a programming error.
std::string AnswerControlRequest(const ProtocolRequest& request, RepairService& service,
                                 Batcher& batcher, const CheckpointHook& checkpoint);

/// Formats the response line for one repaired row (no trailing newline):
/// `ok <session> <row> <y...>`, or `err <session> <row> <CODE> <message>`
/// when the row failed validation.
std::string FormatRowResponse(const RowResponse& response);

/// Formats a request-level failure (a parse error, a refused connection)
/// as an `err - - <CODE> <message>` line.
std::string FormatErrorLine(const common::Status& status);

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_PROTOCOL_H_
