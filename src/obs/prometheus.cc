#include "obs/prometheus.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdint>

#include "common/string_util.h"

namespace otfair::obs {

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

/// %.17g, which reads back to the same bits but is not the shortest
/// such form (0.1 renders as 0.10000000000000001); integers below 1e15
/// render without a dot (Prometheus accepts both, integer form is
/// friendlier to diffs).
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
    return buf;
  }
  char buf[common::kMaxDouble17Chars];
  return std::string(buf, common::AppendDouble17(buf, v));
}

/// Escapes a HELP text: backslash and newline per the exposition format.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Cumulative bucket ladder for histogram exposition: powers of 4 from
/// 1µs to ~1s, a good spread for sub-ms repair latencies through slow
/// fsyncs. The native 328-slot resolution stays available via quantile
/// gauges; exposition buckets trade resolution for scrape size.
constexpr uint64_t kLadderUs[] = {1,    4,     16,    64,     256,    1024,
                                  4096, 16384, 65536, 262144, 1048576};

void AppendHistogram(const MetricFamily& family, std::string* out) {
  const Histogram::Snapshot& snap = *family.histogram;
  uint64_t cumulative = 0;
  int bucket = 0;
  for (uint64_t le : kLadderUs) {
    // Native buckets whose inclusive upper edge fits under the ladder rung
    // belong to it; edges are exact powers-of-two boundaries so the
    // powers-of-4 ladder never splits a native bucket.
    while (bucket < Histogram::kBuckets && Histogram::BucketUpperEdgeUs(bucket) <= le) {
      cumulative += snap.counts[bucket];
      ++bucket;
    }
    *out += family.name + "_bucket{le=\"" + FormatValue(static_cast<double>(le)) +
            "\"} " + FormatValue(static_cast<double>(cumulative)) + "\n";
  }
  *out += family.name + "_bucket{le=\"+Inf\"} " +
          FormatValue(static_cast<double>(snap.count)) + "\n";
  *out += family.name + "_sum " + FormatValue(snap.sum) + "\n";
  *out += family.name + "_count " + FormatValue(static_cast<double>(snap.count)) + "\n";
}

}  // namespace

std::string RenderPrometheusText(const Registry& registry) {
  std::string out;
  for (const MetricFamily& family : registry.Collect()) {
    out.append("# HELP ").append(family.name).append(" ").append(EscapeHelp(family.help));
    out.append("\n# TYPE ").append(family.name).append(" ").append(KindName(family.kind));
    out.append("\n");
    if (family.kind == MetricKind::kHistogram && family.histogram.has_value()) {
      AppendHistogram(family, &out);
      continue;
    }
    for (const MetricSample& sample : family.samples) {
      out += family.name;
      if (!sample.labels.empty()) {
        out.append("{").append(sample.labels).append("}");
      }
      out.append(" ").append(FormatValue(sample.value)).append("\n");
    }
  }
  return out;
}

}  // namespace otfair::obs
